// R6 fixture for a vendored crate: the lines marked `red` are findings.
#![deny(unsafe_code)]

#[allow(unsafe_code)]
fn group_blocks(state: &[u32; 16], wide: bool) -> [[u32; 8]; 16] {
    if wide {
        // SAFETY: the caller checked the host.
        return unsafe { avx2_kernel(state) };
    }
    // SAFETY: a second site in the allowed function is still a second site.
    unsafe { avx2_kernel(state) } // red
}

#[allow(unsafe_code)]
fn stream_blocks(state: &[u32; 16], apply: fn(u32) -> u32) -> [[u32; 8]; 16] {
    let _ = apply(0);
    // SAFETY: a second call site of the kernel.
    unsafe { avx2_kernel(state) } // red
}

// SAFETY: item-level unsafe is never the dispatch.
#[allow(unsafe_code)]
unsafe fn avx2_kernel(state: &[u32; 16]) -> [[u32; 8]; 16] { // red
    [[state[0]; 8]; 16]
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        // SAFETY: tests may do as they like.
        let _ = unsafe { super::avx2_kernel(&[0; 16]) };
    }
}
