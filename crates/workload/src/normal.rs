//! The worlds' one standard-normal kernel: a 256-layer ziggurat
//! (Marsaglia & Tsang, "The Ziggurat Method for Generating Random
//! Variables", J. Stat. Softw. 5(8), 2000) that takes its layer and its
//! uniform from disjoint bits of one `u64` — the low 8 and the top 53 —
//! against the layer / uniform correlation Doornik found in the original
//! ("An Improved Ziggurat Method to Generate Normal Random Samples", 2005).
//!
//! Under `f(x) = exp(−x²/2)` the ziggurat stacks 256 layers of equal area
//! `V`. Layer `i ≥ 1` is the rectangle of half-width `X[i]` between the
//! heights `F[i] = f(X[i])` and `F[i + 1]`; layer 0 is the base strip, the
//! rectangle under `R` plus the tail beyond it, drawn as one rectangle of
//! half-width `X[0] = V / f(R)`. A draw picks a layer and a point
//! `x = u·X[i]` across it, `u` uniform on `[−1, 1)`. When `|x| < X[i + 1]`
//! the point lies under the curve at every height of its layer and `x` is
//! the draw: one `u64`, one multiply, one compare, and no libm call. The
//! other ≈ 1.5 % of draws take `edge`. Layer 0's overhang is the tail,
//! drawn by Marsaglia's (1964) exponential rejection. Any other layer's is
//! a wedge, kept when a uniform height falls under `f(x)` and drawn afresh
//! when it does not. Only these draws call `exp` or `ln`.
//!
//! The tables are `const` literals, so no host's libm reaches the fast
//! path: the recurrence from `X[1] = R` was run once in `f64` and its
//! results written out (the unit tests rerun it step by step).
//!
//! [`gaussian`] takes a draw's `u64`s one `next_u64` at a time (MEMORY's
//! sparse updates, the drift, the experiments). `Normals` decodes a run
//! of draws off `fill_words` chunks of a `Keystream` (TEMPERATURE's
//! units, every tick) and reads the very same words.

use rand::RngCore;
use rand_chacha::ChaCha8Rng;

/// Layers of the ziggurat.
const LAYERS: usize = 256;

/// Where the tail begins. Marsaglia & Tsang print it as
/// 3.654 152 885 361 008 8, the same `f64`.
const R: f64 = 3.654_152_885_361_009;

/// Area of every layer: the base strip's `R·f(R) + ∫_R^∞ f`, to the
/// nearest `f64`. (Marsaglia & Tsang's 0.004 928 673 233 99 is this value
/// to 12 digits; rounded so, the top layer's area misses `V` by 10⁻⁹.)
/// The tables hold it; only their tests read it.
#[cfg(test)]
const V: f64 = 0.004_928_673_233_974_655;

/// `2⁻⁵²`: the top 53 bits of a word times this, less 1, are uniform on
/// `[−1, 1)`.
const SIGNED_UNIT: f64 = 1.0 / (1u64 << 52) as f64;

/// `2⁻⁵³`: the top 53 bits of a word times this are uniform on `[0, 1)`.
const UNIT: f64 = 1.0 / (1u64 << 53) as f64;

/// Words of keystream [`Normals`] holds at a time (4 KiB, on the stack).
const CHUNK_WORDS: usize = 1_024;

/// A standard normal from the `u64`s `next` hands out: one on the fast
/// path, more when the draw takes a wedge or the tail.
///
/// xtask: no-alloc
#[inline]
fn standard_normal(mut next: impl FnMut() -> u64) -> f64 {
    loop {
        let bits = next();
        let layer = usize::from(bits.to_le_bytes()[0]);
        let u = (bits >> 11) as f64 * SIGNED_UNIT - 1.0;
        let x = u * X[layer];
        if x.abs() < X[layer + 1] {
            return x;
        }
        if let Some(x) = edge(layer, u, x, &mut next) {
            return x;
        }
    }
}

/// The draw `x = u·X[layer]` that fell outside the next layer's width:
/// for layer 0 a draw from the tail beyond `R` on `u`'s side, otherwise
/// `x` itself if a uniform height in its layer falls under `f(x)`, and
/// `None` (draw again) if not.
///
/// xtask: no-alloc
#[cold]
#[inline(never)]
fn edge(layer: usize, u: f64, x: f64, next: &mut impl FnMut() -> u64) -> Option<f64> {
    if layer == 0 {
        return Some(tail(u < 0.0, next));
    }
    let height = F[layer] + (F[layer + 1] - F[layer]) * ((next() >> 11) as f64 * UNIT);
    (height < (-0.5 * x * x).exp()).then_some(x)
}

/// A draw from the normal tail beyond `R` (negated if `negative`),
/// Marsaglia's (1964) method: `R + e₁/R` for exponentials `e₁`, `e₂`,
/// kept when `2e₂ ≥ (e₁/R)²`. Each try reads two words.
///
/// xtask: no-alloc
fn tail(negative: bool, next: &mut impl FnMut() -> u64) -> f64 {
    // The top 53 bits as a uniform on `(0, 1]`, so that `ln` is finite.
    let mut open_unit = || ((next() >> 11) + 1) as f64 * UNIT;
    loop {
        let x = -open_unit().ln() / R;
        let y = -open_unit().ln();
        if 2.0 * y >= x * x {
            return if negative { -(R + x) } else { R + x };
        }
    }
}

/// A standard normal from `next_u64`s of `rng`: one on the fast path, a
/// few more for a wedge or the tail.
///
/// xtask: no-alloc
#[inline]
pub fn gaussian<G: RngCore + ?Sized>(rng: &mut G) -> f64 {
    standard_normal(|| rng.next_u64())
}

/// A keystream read two ways: `fill_words` hands out the `u32`s as many
/// `next_u32` would, and `next_u64` pairs two of them as `lo | hi << 32`.
pub(crate) trait Keystream: RngCore {
    /// Fills `out` with the next `out.len()` words.
    fn fill_words(&mut self, out: &mut [u32]);
}

impl Keystream for ChaCha8Rng {
    fn fill_words(&mut self, out: &mut [u32]) {
        ChaCha8Rng::fill_words(self, out);
    }
}

/// A run of draws decoded off `fill_words` chunks of a keystream, word for
/// word the draws [`gaussian`] takes one `next_u64` at a time. A fill holds
/// at most two words (one fast draw) per draw still to take, so the chunk
/// never reads ahead of the per-draw stream, and a wedge or tail draw that
/// runs off the chunk's end reads on from the keystream itself.
pub(crate) struct Normals<'k, K> {
    keystream: &'k mut K,
    words: [u32; CHUNK_WORDS],
    /// Next unread word of `words[..filled]`; both are even.
    at: usize,
    filled: usize,
    /// Draws still to take.
    left: usize,
}

impl<'k, K: Keystream> Normals<'k, K> {
    /// The next `draws` draws of `keystream`.
    pub(crate) fn new(keystream: &'k mut K, draws: usize) -> Self {
        Self {
            keystream,
            words: [0; CHUNK_WORDS],
            at: 0,
            filled: 0,
            left: draws,
        }
    }

    /// The next draw. Past the `draws` announced, every word comes from
    /// the keystream itself.
    ///
    /// xtask: no-alloc
    #[inline]
    pub(crate) fn draw(&mut self) -> f64 {
        if self.at == self.filled {
            self.filled = CHUNK_WORDS.min(2 * self.left);
            self.keystream.fill_words(&mut self.words[..self.filled]);
            self.at = 0;
        }
        self.left = self.left.saturating_sub(1);
        standard_normal(|| self.next_u64())
    }

    /// The next `u64`: the chunk's next two words, or the keystream's once
    /// the chunk is spent.
    ///
    /// xtask: no-alloc
    #[inline]
    fn next_u64(&mut self) -> u64 {
        match self.words[..self.filled].get(self.at..self.at + 2) {
            Some(&[lo, hi]) => {
                self.at += 2;
                u64::from(hi) << 32 | u64::from(lo)
            }
            _ => self.keystream.next_u64(),
        }
    }
}

/// Layer widths, widest first: `X[0] = V / f(R)` (the base strip drawn as
/// one rectangle), `X[1] = R`, then `X[i + 1] = f⁻¹(f(X[i]) + V / X[i])`
/// in `f64` as `(-2.0 * (V / x + f(x)).ln()).sqrt()` computes it, and
/// `X[256] = 0`.
const X: [f64; LAYERS + 1] = [
    3.9107579595249145,
    3.654152885361009,
    3.449278298561431,
    3.3202447338398255,
    3.224575052047802,
    3.147889289518001,
    3.0835261320021434,
    3.027837791769594,
    2.9786032798818436,
    2.934366867208888,
    2.8941210536134125,
    2.857138730873225,
    2.8228773968264433,
    2.7909211740019275,
    2.7609440052799865,
    2.7326853590440114,
    2.705933656123062,
    2.6805146432857447,
    2.656283037576743,
    2.6331163936315822,
    2.610910518488823,
    2.589575986708286,
    2.5690354526818435,
    2.549221550324783,
    2.5300752321598536,
    2.5115444416266937,
    2.493583041271046,
    2.476149939670522,
    2.459208374334704,
    2.442725318200363,
    2.4266709849371457,
    2.4110184139011186,
    2.3957431197819266,
    2.380822795172085,
    2.3662370567172903,
    2.351967227379144,
    2.337996148796528,
    2.324308018871132,
    2.3108882506013715,
    2.297723348902863,
    2.2848008027244915,
    2.2721089902283813,
    2.259637095173787,
    2.247375032947389,
    2.235313384929921,
    2.22344334009251,
    2.2117566428841604,
    2.200245546611276,
    2.1889027716263603,
    2.1777214677402923,
    2.1666951803543077,
    2.1558178198767366,
    2.145083634047888,
    2.134487182846016,
    2.1240233156895227,
    2.1136871506866526,
    2.1034740557148766,
    2.0933796311387916,
    2.083399693998304,
    2.0735302635187427,
    2.063767547811732,
    2.054107931650652,
    2.0445479652175313,
    2.035084353729619,
    2.025713947863854,
    2.016433734906204,
    2.0072408305605287,
    1.9981324713584196,
    1.989106007617438,
    1.9801588969004766,
    1.9712886979336592,
    1.962493064944363,
    1.9537697423846467,
    1.9451165600086784,
    1.9365314282756947,
    1.9280123340526658,
    1.9195573365931882,
    1.9111645637712535,
    1.9028322085504297,
    1.8945585256707052,
    1.8863418285367832,
    1.8781804862929963,
    1.8700729210712672,
    1.8620176053996746,
    1.8540130597602023,
    1.8460578502851857,
    1.8381505865828067,
    1.830289919682757,
    1.8224745400938858,
    1.8147031759662826,
    1.8069745913508208,
    1.79928758454972,
    1.7916409865521625,
    1.7840336595494415,
    1.7764644955245228,
    1.7689324149112684,
    1.7614363653189102,
    1.7539753203176716,
    1.7465482782817225,
    1.7391542612859117,
    1.7317923140529632,
    1.7244615029480448,
    1.7171609150178229,
    1.7098896570713016,
    1.702646854799923,
    1.6954316519345614,
    1.688243209437195,
    1.6810807047251735,
    1.6739433309261247,
    1.666830296161665,
    1.659740822858182,
    1.6526741470830553,
    1.6456295179047817,
    1.638606196775547,
    1.6316034569348727,
    1.624620582833034,
    1.617656869573015,
    1.6107116223698297,
    1.6037841560260941,
    1.5968737944227878,
    1.5899798700241905,
    1.583101723396029,
    1.576238702735906,
    1.5693901634151233,
    1.5625554675310445,
    1.5557339834691761,
    1.5489250854741732,
    1.5421281532290017,
    1.5353425714415139,
    1.528567729437712,
    1.5218030207609978,
    1.5150478427767144,
    1.5083015962813113,
    1.5015636851154637,
    1.4948335157804935,
    1.4881104970574472,
    1.481394039628187,
    1.4746835556978553,
    1.4679784586180793,
    1.4612781625102753,
    1.45458208188841,
    1.4478896312805758,
    1.4412002248487237,
    1.4345132760058918,
    1.4278281970302555,
    1.4211443986753085,
    1.4144612897754707,
    1.4077782768463982,
    1.4010947636792503,
    1.3944101509281404,
    1.3877238356899755,
    1.3810352110758548,
    1.3743436657731656,
    1.3676485835974754,
    1.3609493430332822,
    1.354245316762634,
    1.3475358711805863,
    1.340820365896403,
    1.334098153219359,
    1.3273685776279247,
    1.3206309752210552,
    1.3138846731502194,
    1.30712898903073,
    1.3003632303308361,
    1.2935866937369467,
    1.2867986644932425,
    1.279998415713817,
    1.2731852076653554,
    1.2663582870182284,
    1.2595168860637131,
    1.2526602218948961,
    1.2457874955486261,
    1.2388978911056863,
    1.231990574746135,
    1.2250646937565297,
    1.2181193754854807,
    1.2111537262436982,
    1.2041668301443804,
    1.1971577478794404,
    1.190125515426691,
    1.1830691426826856,
    1.1759876120154509,
    1.1688798767308322,
    1.1617448594456106,
    1.1545814503599268,
    1.1473885054208481,
    1.1401648443681505,
    1.132909248652533,
    1.1256204592155323,
    1.1182971741193437,
    1.1109380460135743,
    1.1035416794246382,
    1.09610662785202,
    1.0886313906539782,
    1.0811144097034022,
    1.0735540657924345,
    1.0659486747621207,
    1.0582964833306734,
    1.0505956645909282,
    1.0428443131441474,
    1.0350404398334394,
    1.0271819660356445,
    1.019266717465483,
    1.0112924174399947,
    1.003256679544672,
    0.9951569996350901,
    0.9869907470990615,
    0.9787551552942237,
    0.9704473110642236,
    0.9620641432230397,
    0.9536024098810852,
    0.9450586844681645,
    0.9364293402865742,
    0.9277105334019992,
    0.9188981836495896,
    0.9099879534967176,
    0.9009752244612208,
    0.8918550707329405,
    0.8826222295851646,
    0.8732710680888597,
    0.8637955455533078,
    0.8541891710081628,
    0.844444954909153,
    0.834555354086381,
    0.8245122087522911,
    0.8143066701352142,
    0.8039291169899702,
    0.7933690588406223,
    0.782615023307232,
    0.7716544242245669,
    0.7604734064301069,
    0.7490566620178141,
    0.7373872114342944,
    0.7254461409099985,
    0.7132122851909748,
    0.7006618411068138,
    0.6877678927957872,
    0.6744998228372925,
    0.6608225742444183,
    0.6466957148949922,
    0.6320722363860595,
    0.6168969900077498,
    0.601104617755991,
    0.5846167661063777,
    0.567338257053817,
    0.5491517023271634,
    0.5299097206615562,
    0.5094233296020898,
    0.487443966139234,
    0.46363433679087995,
    0.43751840220786914,
    0.4083891346119882,
    0.37512133287837723,
    0.3357375192144212,
    0.28617459179206706,
    0.21524189598487314,
    0.0,
];

/// Layer heights: `F[i] = f(X[i])` as `(-0.5 * x * x).exp()` computes it,
/// and `F[256] = f(0) = 1`.
const F: [f64; LAYERS + 1] = [
    0.00047746776460939005,
    0.001260285930498598,
    0.002609072746102164,
    0.0040379725933630305,
    0.0055224032992509916,
    0.007050875471373222,
    0.008616582769398726,
    0.010214971439701459,
    0.011842757857907879,
    0.013497450601739867,
    0.01517708830793531,
    0.016880083152543142,
    0.018605121275724622,
    0.02035109623004451,
    0.02211706270730885,
    0.02390220330579588,
    0.02570580400854891,
    0.027527235669603113,
    0.02936593975813336,
    0.0312214171919203,
    0.03309321945857858,
    0.034980941461716125,
    0.036884215688567305,
    0.03880270740452615,
    0.04073611065594099,
    0.04268414491647452,
    0.04464655225129456,
    0.046623094901930486,
    0.04861355321586865,
    0.05061772386094789,
    0.05263541827679231,
    0.054666461324889046,
    0.056710690106203006,
    0.05876795292093387,
    0.06083810834953996,
    0.06292102443775822,
    0.06501657797124295,
    0.06712465382778857,
    0.06924514439700682,
    0.07137794905889047,
    0.07352297371398138,
    0.07568013035892718,
    0.07784933670209612,
    0.08003051581466307,
    0.0822235958132029,
    0.08442850957035347,
    0.08664519445055807,
    0.08887359206827589,
    0.09111364806637376,
    0.09336531191269101,
    0.095628536713009,
    0.09790327903886246,
    0.10018949876881002,
    0.10248715894193525,
    0.10479622562248707,
    0.1071166677746838,
    0.1094484571468118,
    0.11179156816383809,
    0.11414597782783849,
    0.11651166562561087,
    0.11888861344291006,
    0.1212768054847903,
    0.12367622820159657,
    0.1260868702201859,
    0.12850872227999957,
    0.13094177717364436,
    0.13338602969166916,
    0.13584147657125376,
    0.13830811644855073,
    0.1407859498144447,
    0.14327497897351346,
    0.14577520800599403,
    0.14828664273257455,
    0.15080929068184568,
    0.15334316106026286,
    0.1558882647244792,
    0.15844461415592428,
    0.161012223437511,
    0.16359110823236558,
    0.1661812857644819,
    0.16878277480121137,
    0.17139559563750584,
    0.1740197700818386,
    0.17665532144373486,
    0.17930227452284758,
    0.18196065559952251,
    0.18463049242679927,
    0.1873118142238003,
    0.19000465167046499,
    0.19270903690358918,
    0.1954250035141343,
    0.19815258654577517,
    0.2008918224946566,
    0.2036427493103349,
    0.2064054063978808,
    0.20917983462112508,
    0.21196607630703018,
    0.21476417525117358,
    0.21757417672433113,
    0.220396127480152,
    0.22323007576391748,
    0.22607607132238028,
    0.22893416541468034,
    0.23180441082433872,
    0.23468686187233,
    0.2375815744312381,
    0.2404886059405006,
    0.2434080154227503,
    0.24633986350126383,
    0.24928421241852852,
    0.2522411260559422,
    0.25521066995466196,
    0.25819291133761924,
    0.2611879191327212,
    0.2641957639972612,
    0.26721651834356147,
    0.27025025636587546,
    0.27329705406857707,
    0.2763569892956683,
    0.27943014176163794,
    0.2825165930837076,
    0.28561642681550176,
    0.2887297284821829,
    0.2918565856170952,
    0.2949970877999618,
    0.2981513266966855,
    0.30131939610080305,
    0.30450139197665,
    0.30769741250429206,
    0.3109075581262865,
    0.3141319315963372,
    0.3173706380299136,
    0.32062378495690536,
    0.3238914823763911,
    0.3271738428136014,
    0.3304709813791636,
    0.33378301583071845,
    0.33711006663700605,
    0.34045225704452187,
    0.3438097131468507,
    0.34718256395679364,
    0.3505709414814061,
    0.3539749808000768,
    0.3573948201457805,
    0.36083060098964803,
    0.36428246812900406,
    0.3677505697790326,
    0.37123505766823955,
    0.37473608713789125,
    0.3782538172456193,
    0.38178841087339377,
    0.38534003484007745,
    0.38890886001878894,
    0.39249506145931584,
    0.39609881851583273,
    0.39972031498019756,
    0.40335973922111484,
    0.40701728432947376,
    0.41069314827018866,
    0.4143875340408916,
    0.4181006498378486,
    0.42183270922949634,
    0.4255839313380224,
    0.4293545410294419,
    0.43314476911265276,
    0.436954852547986,
    0.4407850346658044,
    0.4446355653957398,
    0.4485067015072034,
    0.45239870686184896,
    0.45631185267871677,
    0.4602464178128432,
    0.46420268904817463,
    0.4681809614056939,
    0.4721815384677304,
    0.47620473271950614,
    0.48025086590904703,
    0.4843202694266836,
    0.4884132847054583,
    0.4925302636438688,
    0.4966715690524901,
    0.5008375751261491,
    0.5050286679434685,
    0.5092452459957482,
    0.5134877207473272,
    0.5177565172297565,
    0.522052074672322,
    0.5263748471716846,
    0.5307253044036623,
    0.535103932380458,
    0.5395112342569526,
    0.5439477311900267,
    0.5484139632552664,
    0.552910490425833,
    0.5574378936187666,
    0.5619967758145251,
    0.566587763256165,
    0.5712115067352538,
    0.5758686829723543,
    0.5805599961007915,
    0.5852861792633718,
    0.5900479963328262,
    0.5948462437679877,
    0.5996817526191256,
    0.604555390697468,
    0.6094680649257737,
    0.6144207238889141,
    0.6194143606058345,
    0.6244500155470267,
    0.6295287799248369,
    0.6346517992876238,
    0.6398202774530568,
    0.6450354808208226,
    0.650298743110817,
    0.6556114705796976,
    0.6609751477766634,
    0.6663913439087504,
    0.6718617198970824,
    0.6773880362187737,
    0.6829721616449951,
    0.688616083004672,
    0.6943219161261169,
    0.7000919181365118,
    0.7059285013327545,
    0.7118342488782486,
    0.7178119326307222,
    0.7238645334686304,
    0.7299952645614765,
    0.736207598126863,
    0.7425052963401514,
    0.7488924472191572,
    0.7553735065070964,
    0.7619533468367955,
    0.7686373157984865,
    0.7754313049811874,
    0.7823418326548027,
    0.7893761435660249,
    0.7965423304229593,
    0.8038494831709647,
    0.8113078743126567,
    0.8189291916037029,
    0.8267268339462219,
    0.834716292986884,
    0.8429156531122047,
    0.8513462584586785,
    0.8600336211963321,
    0.8690086880368576,
    0.878309655808918,
    0.8879846607558339,
    0.8980959218983441,
    0.9087264400521315,
    0.9199915050393478,
    0.9320600759592313,
    0.9451989534423006,
    0.9598790918001079,
    0.977101701267673,
    1.0,
];

#[cfg(test)]
mod tests {
    use super::*;
    use digest_stats::normal::phi;
    use rand::SeedableRng;

    /// The recurrence's step from layer `i`'s width to the next one's.
    fn next_width(x: f64, f: f64) -> f64 {
        (-2.0 * (V / x + f).ln()).sqrt()
    }

    /// Distance in ulps between two finite, non-negative `f64`s.
    fn ulps(a: f64, b: f64) -> u64 {
        a.to_bits().abs_diff(b.to_bits())
    }

    /// The tables are the ziggurat: every layer has area `V` to 10⁻¹²
    /// relative (the base strip as its one rectangle), the widths fall
    /// from `X[0] = V / f(R)` through `X[1] = R` to `X[256] = 0`, and each
    /// `const` entry lies within 2 ulps of this host's libm rerunning the
    /// recurrence from the entry before it.
    #[test]
    fn every_layer_has_area_v_and_the_tables_are_the_recurrence() {
        assert_eq!(X[1], R);
        assert_eq!(X[LAYERS], 0.0);
        assert_eq!(F[LAYERS], 1.0);
        assert!(X.windows(2).all(|w| w[0] > w[1]), "widths fall");
        assert!(ulps(X[0], V / F[1]) <= 2, "X[0] = {}", X[0]);
        for i in 0..LAYERS {
            let f = (-0.5 * X[i] * X[i]).exp();
            assert!(ulps(F[i], f) <= 2, "F[{i}] = {}, libm {f}", F[i]);
            if (1..LAYERS - 1).contains(&i) {
                let x = next_width(X[i], F[i]);
                assert!(
                    ulps(X[i + 1], x) <= 2,
                    "X[{}] = {}, libm {x}",
                    i + 1,
                    X[i + 1]
                );
            }
            let area = X[i] * (F[i + 1] - if i == 0 { 0.0 } else { F[i] });
            assert!(
                ((area - V) / V).abs() < 1e-12,
                "layer {i}: area {area}, V {V}"
            );
        }
        // The top layer closes the stack: the next width would be 0 (up
        // to rounding, here a step past 1 under the root).
        assert!((V / X[LAYERS - 1] + F[LAYERS - 1] - 1.0).abs() < 1e-14);
    }

    /// Ten million draws at a fixed seed are N(0, 1): mean, variance and
    /// fourth moment within 5σ of 0, 1 and 3; Kolmogorov–Smirnov `√n·D`
    /// under its α = 0.001 critical value 1.95; and the mass beyond `±R`
    /// within 4σ of `2(1 − Φ(R))`.
    ///
    /// `D` is bounded from above on a 2²⁰-bin histogram of `[−6, 6)`: on
    /// a bin `[a, b)` the gap between the empirical CDF and `Φ` is at most
    /// `max(F̂(b) − Φ(a), Φ(b) − F̂(a))`, which overstates `√n·D` by less
    /// than `√n·φ(0)·(b − a)` ≈ 0.015.
    #[test]
    fn ten_million_draws_are_standard_normal() {
        const N: usize = 10_000_000;
        const BINS: usize = 1 << 20;
        const HALF: f64 = 6.0;
        let width = 2.0 * HALF / BINS as f64;
        let mut rng = ChaCha8Rng::seed_from_u64(20_080_402);
        let mut counts = vec![0u32; BINS];
        let (mut below, mut above) = (0u64, 0u64);
        let (mut sum, mut sum2, mut sum4, mut beyond_r) = (0.0, 0.0, 0.0, 0u64);
        for _ in 0..N {
            let x = gaussian(&mut rng);
            let x2 = x * x;
            (sum, sum2, sum4) = (sum + x, sum2 + x2, sum4 + x2 * x2);
            beyond_r += u64::from(x.abs() > R);
            let bin = ((x + HALF) / width).floor();
            if bin < 0.0 {
                below += 1;
            } else if bin >= BINS as f64 {
                above += 1;
            } else {
                counts[bin as usize] += 1;
            }
        }
        let n = N as f64;
        let (mean, var, m4) = (sum / n, sum2 / n, sum4 / n);
        assert!(mean.abs() < 5.0 / n.sqrt(), "mean {mean}");
        assert!((var - 1.0).abs() < 5.0 * (2.0 / n).sqrt(), "E[x²] {var}");
        assert!((m4 - 3.0).abs() < 5.0 * (96.0 / n).sqrt(), "E[x⁴] {m4}");

        let mut d: f64 = (below as f64 / n - phi(-HALF)).abs();
        let mut cum = below as f64;
        for (k, &count) in counts.iter().enumerate() {
            let a = -HALF + k as f64 * width;
            let next = cum + f64::from(count);
            d = d.max(next / n - phi(a)).max(phi(a + width) - cum / n);
            cum = next;
        }
        d = d.max((cum / n - phi(HALF)).abs());
        assert_eq!(cum as u64 + above, N as u64);
        let ks = n.sqrt() * d;
        assert!(ks < 1.95, "√n·D ≤ {ks}");

        let p = 2.0 * phi(-R);
        let sigma = (n * p * (1.0 - p)).sqrt();
        let tail = beyond_r as f64;
        println!("mean {mean:.2e}, E[x²] {var:.5}, E[x⁴] {m4:.4}, √n·D ≤ {ks:.3}, beyond R {tail} of {:.0} ± {sigma:.0}", n * p);
        assert!(
            (tail - n * p).abs() < 4.0 * sigma,
            "{tail} beyond R, want {} ± {sigma}",
            n * p
        );
    }

    /// A keystream of fixed words, read both ways; `taken` counts the
    /// words handed out.
    #[derive(Clone)]
    struct Fixed {
        words: Vec<u32>,
        taken: usize,
    }

    impl Fixed {
        fn of(draws: &[u64]) -> Self {
            let words = draws.iter().flat_map(|&w| [w as u32, (w >> 32) as u32]);
            Self {
                words: words.collect(),
                taken: 0,
            }
        }
    }

    impl RngCore for Fixed {
        fn next_u32(&mut self) -> u32 {
            self.taken += 1;
            self.words[self.taken - 1]
        }

        fn next_u64(&mut self) -> u64 {
            let lo = u64::from(self.next_u32());
            u64::from(self.next_u32()) << 32 | lo
        }
    }

    impl Keystream for Fixed {
        fn fill_words(&mut self, out: &mut [u32]) {
            out.copy_from_slice(&self.words[self.taken..self.taken + out.len()]);
            self.taken += out.len();
        }
    }

    /// A word that draws `u = k·2⁻⁵² − 1` in `layer`.
    fn word(layer: u8, k: u64) -> u64 {
        k << 11 | u64::from(layer)
    }

    /// `k` for the largest `u < 0` in `layer` that misses the next width:
    /// the draw's wedge (its tail, for layer 0).
    fn just_outside(layer: u8) -> u64 {
        let i = usize::from(layer);
        let k = ((1.0 - X[i + 1] / X[i]) / SIGNED_UNIT) as u64;
        assert!(((k as f64 * SIGNED_UNIT - 1.0) * X[i]).abs() >= X[i + 1]);
        k
    }

    /// The draws of `Normals` over `stream`, `draws` of them, and the
    /// words they read; then the same of per-draw `gaussian`.
    fn both_ways(stream: &[u64], draws: usize) -> [(Vec<u64>, usize); 2] {
        let mut chunked = Fixed::of(stream);
        let mut normals = Normals::new(&mut chunked, draws);
        let values = (0..draws).map(|_| normals.draw().to_bits()).collect();
        let mut per_draw = Fixed::of(stream);
        let want = (0..draws)
            .map(|_| gaussian(&mut per_draw).to_bits())
            .collect();
        [(values, chunked.taken), (want, per_draw.taken)]
    }

    /// A draw that takes the tail or a wedge reads past its first word; the
    /// chunked decoder gives the per-draw values and stops on the per-draw
    /// word when that draw straddles its chunk's end — its first word the
    /// chunk's last, the rest read from the keystream — and when it spends
    /// words of the chunk that later draws were filled for.
    #[test]
    fn edge_draws_straddle_a_chunk_as_the_per_draw_stream() {
        let fast = word(7, 1 << 52); // u = 0: x = 0, the fast path.
        let tail = word(0, 0); // u = −1 in the base strip: the tail.
                               // Layer 200 at its outer edge (`u = −1`), and just outside the
                               // next layer's width: both wedge draws.
        let (rim, wedge) = (word(200, 0), word(200, just_outside(200)));
        // Tail tries: the first rejected (`e₁` large, `e₂` ≈ 0), the
        // second kept (`e₁` = 0).
        let (reject, kept) = ([1 << 11, u64::MAX], [u64::MAX, u64::MAX]);
        let tail_words = [reject, kept].concat();
        // Wedge heights: `u64::MAX` is near the layer's top, above `f` at
        // its rim; 0 is the layer's floor, below `f` anywhere inside.
        let (too_high, low) = (u64::MAX, 0);

        let cases: Vec<(Vec<u64>, usize, usize)> = vec![
            // Draw 3 starts at the chunk's last word and reads its two
            // tail tries from the keystream.
            ([vec![fast, fast, tail], tail_words.clone()].concat(), 3, 14),
            // A tail draw spends the chunk filled for the two after it.
            (
                [vec![tail], tail_words.clone(), vec![fast, fast]].concat(),
                3,
                14,
            ),
            // A wedge draw at the chunk's end is rejected and redrawn from
            // the keystream, then kept on a low height.
            (vec![fast, rim, too_high, wedge, low], 2, 10),
            // A kept layer-0 draw in the chunk's middle.
            (vec![fast, word(0, 1 << 52), fast], 3, 6),
        ];
        for (stream, draws, words) in cases {
            let [chunked, per_draw] = both_ways(&stream, draws);
            assert_eq!(chunked, per_draw, "{stream:x?}");
            assert_eq!(per_draw.1, words, "{stream:x?}");
        }
        // The tail draws land beyond `R` on `u`'s side; the wedge on its.
        let mut tail_stream = Fixed::of(&[vec![tail], tail_words].concat());
        assert_eq!(gaussian(&mut tail_stream), -R);
        let x = gaussian(&mut Fixed::of(&[wedge, low]));
        assert!(x <= -X[201] && x > -X[200], "{x}");
    }

    /// On a ChaCha keystream, runs of 1 to 3 000 draws decode alike both
    /// ways, and the keystream ends on the same word.
    #[test]
    fn chunked_draws_are_the_per_draw_stream() {
        for (seed, draws) in [(1, 1), (2, 511), (3, 512), (4, 513), (5, 3_000)] {
            let mut chunked = ChaCha8Rng::seed_from_u64(seed);
            let mut per_draw = chunked.clone();
            let mut normals = Normals::new(&mut chunked, draws);
            for k in 0..draws {
                let want = gaussian(&mut per_draw).to_bits();
                assert_eq!(normals.draw().to_bits(), want, "seed {seed}, draw {k}");
            }
            assert_eq!(chunked.next_u64(), per_draw.next_u64());
        }
    }
}
