//! Golden outputs every pass is checked against. The tables are printed
//! by `perfbench --print-golden` and pasted here; they do not depend on
//! the seed, which only reorders the work.

/// FNV-1a over 64-bit words.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

pub fn lookup<T: Copy>(table: &[(&str, T)], key: &str) -> Option<T> {
    table.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

/// Section 5.2 AES prototype, simulated cycles per block: mesh, custom.
pub const AES_CYCLES_PER_BLOCK: (u64, u64) = (216, 169);

/// `campaign_full`: the Pareto front as sorted point labels, and the
/// front's hypervolume.
pub const CAMPAIGN_FRONT: &[&str] = &[
    "tgff_n8_s1/dfs/Energy/cmos-100nm/fp1/ramp",
    "tgff_n8_s1/dfs/Links/cmos-100nm/fp1/ramp",
    "tgff_n8_s2/dfs/Energy/cmos-100nm/fp1/ramp",
    "tgff_n8_s2/dfs/Links/cmos-100nm/fp1/ramp",
];
pub const CAMPAIGN_HYPERVOLUME: f64 = 0.9859601270603526;

/// `fig4_fixed`: decomposition cost per instance (links objective).
pub const FIG4_COSTS: &[(&str, f64)] = &[
    ("automotive18", 22.0),
    ("planted_n10_s0", 11.0),
    ("planted_n10_s1", 15.0),
    ("planted_n10_s2", 16.0),
    ("planted_n10_s3", 14.0),
    ("planted_n10_s4", 12.0),
    ("planted_n10_s5", 14.0),
    ("planted_n10_s6", 12.0),
    ("planted_n10_s7", 12.0),
    ("planted_n10_s8", 17.0),
    ("planted_n15_s0", 14.0),
    ("planted_n15_s1", 15.0),
    ("planted_n15_s2", 17.0),
    ("planted_n15_s3", 16.0),
    ("planted_n15_s4", 15.0),
    ("planted_n15_s5", 15.0),
    ("planted_n15_s6", 17.0),
    ("planted_n15_s7", 18.0),
    ("planted_n15_s8", 18.0),
    ("planted_n20_s0", 32.0),
    ("planted_n20_s1", 28.0),
    ("planted_n20_s2", 35.0),
    ("planted_n20_s3", 34.0),
    ("planted_n20_s4", 34.0),
    ("planted_n20_s5", 30.0),
    ("planted_n20_s6", 31.0),
    ("planted_n20_s7", 31.0),
    ("planted_n20_s8", 37.0),
    ("planted_n25_s0", 43.0),
    ("planted_n25_s1", 37.0),
    ("planted_n25_s2", 42.0),
    ("planted_n25_s3", 41.0),
    ("planted_n25_s4", 40.0),
    ("planted_n25_s5", 37.0),
    ("planted_n25_s6", 45.0),
    ("planted_n25_s7", 52.0),
    ("planted_n25_s8", 55.0),
    ("planted_n30_s0", 44.0),
    ("planted_n30_s1", 48.0),
    ("planted_n30_s2", 57.0),
    ("planted_n30_s3", 50.0),
    ("planted_n30_s4", 52.0),
    ("planted_n30_s5", 50.0),
    ("planted_n30_s6", 51.0),
    ("planted_n30_s7", 60.0),
    ("planted_n30_s8", 57.0),
    ("planted_n35_s0", 65.0),
    ("planted_n35_s1", 63.0),
    ("planted_n35_s2", 68.0),
    ("planted_n35_s3", 64.0),
    ("planted_n35_s4", 73.0),
    ("planted_n35_s5", 58.0),
    ("planted_n35_s6", 61.0),
    ("planted_n35_s7", 63.0),
    ("planted_n35_s8", 59.0),
    ("planted_n40_s0", 79.0),
    ("planted_n40_s1", 76.0),
    ("planted_n40_s2", 85.0),
    ("planted_n40_s3", 88.0),
    ("planted_n40_s4", 94.0),
    ("planted_n40_s5", 84.0),
    ("planted_n40_s6", 82.0),
    ("planted_n40_s7", 98.0),
    ("planted_n40_s8", 78.0),
    ("tgff_n10", 12.0),
    ("tgff_n12", 20.0),
    ("tgff_n15", 28.0),
    ("tgff_n18", 29.0),
    ("tgff_n5", 4.0),
    ("tgff_n8", 13.0),
];

/// `sim_ramp`: FNV-1a digest of every load point's bits (rate, latency,
/// throughput, packets, energy) per model and router fidelity.
pub const SIM_DIGESTS: &[(&str, u64)] = &[
    ("automotive18/credit", 0xa87b7e7d11371e63),
    ("automotive18/ideal", 0xa9fb7a5b47a3b8a7),
    ("fig5/credit", 0xd07517797af1ae75),
    ("fig5/ideal", 0xcc24db469d953bbe),
    ("mesh4x4/credit", 0x07252135ce8b93ff),
    ("mesh4x4/ideal", 0x321117ac5d9875a5),
    ("mesh8x8/credit", 0x26cbd8ef2a1b84ac),
    ("mesh8x8/ideal", 0xc690ae6bdc425b06),
    ("multimedia16/credit", 0x5bfa55395e7d3e3c),
    ("multimedia16/ideal", 0xe91ecbbe37549533),
    ("pajek_planted_n10_s1/credit", 0x8ee036a6e2367936),
    ("pajek_planted_n10_s1/ideal", 0x42e5a020a4b372fd),
    ("pajek_planted_n10_s2/credit", 0xf533d2cf8616ea47),
    ("pajek_planted_n10_s2/ideal", 0xb39507d3b6094997),
    ("pajek_planted_n16_s1/credit", 0xc8f93de1cd0ea73c),
    ("pajek_planted_n16_s1/ideal", 0x4a94c58214ac7549),
    ("pajek_planted_n16_s2/credit", 0xe9e021f7a1f6968b),
    ("pajek_planted_n16_s2/ideal", 0xc90f2a73a4fe2d57),
    ("tgff_n12_s1/credit", 0xb8272468fd0eb166),
    ("tgff_n12_s1/ideal", 0x625fbeb87d76c362),
    ("tgff_n12_s2/credit", 0xbbcde58b142c9357),
    ("tgff_n12_s2/ideal", 0x547f25ae78e48b37),
    ("tgff_n15_s1/credit", 0x24355b364b6b8eb5),
    ("tgff_n15_s1/ideal", 0xd12a643640a2ad6e),
    ("tgff_n15_s2/credit", 0x8a6b7a751f6deb2e),
    ("tgff_n15_s2/ideal", 0x99278a176fb8f82d),
    ("tgff_n8_s1/credit", 0xe5086df61a1af681),
    ("tgff_n8_s1/ideal", 0x23ecd3a6be898138),
    ("tgff_n8_s2/credit", 0x6d57f4b6a1d59184),
    ("tgff_n8_s2/ideal", 0x4878fcc421c0b976),
];
