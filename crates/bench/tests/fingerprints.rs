//! Every registered experiment's fingerprint, pinned. A fingerprint is
//! a SHA-256 over the cache key of every job, so these fourteen values
//! cover every machine configuration the figures, the hardware sweeps
//! and the backend cross-section run — including the non-default
//! points that `Axis` moves. A change to the machine-config structs
//! (a field folded into a constant, a knob deleted) must leave every
//! value here unchanged: the keys name users' on-disk cache entries
//! and the dist handshake compares these fingerprints.

/// `name fingerprint`, one experiment a line, in registry order.
const PINNED: &str = "\
fig12         d6574f2f2886b2127ed894cc8fc8c526b522bde76eae2850be5fba9c46ec23aa
fig13         976ab43d72f6628c2a1a35cb037493eafd1bd5a14677239fe09797227560e3a4
fig14         a01dedc44774406d1af45127a8ce82205224e6425f0a0e001d71ce64e246087c
fig15         80e46961d97bf9de9a8cb3b1cd731f7cd591e877998867b8ed9bc7aa9c3b746d
fig16         062e374a0198bb7e57793b0730cb829328a6e9dbf9e85b5d3a5466d6e90902e6
smoke         9216de26309446df45db6f985e856614f2fc072c3efb5be0ee726c4a6381093f
litmus        7822eeff83e900c0a1bcdfeb0274c6c66af4a7d55807917f70737697a04e055a
backends      d5e54ce159f468ec0ebf6d9dba0f2e61fd1d450dd7397e6db033197ac4d23c9d
hwsweep-rob   dcb53dc52dceb55df77070ec1442eac252169866a91f0f67832933fe86a47e4a
hwsweep-sb    e2b8822ebc25de22ab54bf5943d9b78cb8df1f3bfcf2257772d2b0943d65c6a3
hwsweep-fsb   36176ce8914aed625cc49e83cc04f4f56ea47dbaa1e705d8f1d22ef065a0706e
hwsweep-fss   d00d0718384cb5f1b085953dfd9f2e47e1e0f4209957e1474d6f1d192dbe27c8
hwsweep-width e3f5b9e3030ecd74acab004977dd4f67dcc7a534cad72152ba650f57dbbec65e
hwsweep-l2    8a9ae288da5886ed0a400cae3419bf97ba89ed3f09a55acd778b6ddca6d3d43f";

#[test]
fn every_registered_experiment_fingerprint_is_pinned() {
    let pinned: Vec<(&str, &str)> = PINNED
        .lines()
        .map(|line| line.split_once(' ').expect("name and fingerprint"))
        .map(|(name, fp)| (name, fp.trim()))
        .collect();
    assert_eq!(
        sfence_bench::experiment_names().to_vec(),
        pinned.iter().map(|&(n, _)| n).collect::<Vec<_>>(),
        "the registry and the pin table list different experiments"
    );
    let moved: Vec<String> = pinned
        .iter()
        .filter_map(|&(name, pinned)| {
            let fresh = sfence_bench::experiment_by_name(name)
                .expect("registered")
                .fingerprint();
            (fresh != pinned).then(|| format!("{name}: pinned {pinned}, now {fresh}"))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "experiment fingerprints moved:\n{}",
        moved.join("\n")
    );
}
