//! The correctness gate: outputs every run must reproduce.
//!
//! At [`crate::workloads::DEFAULT_SEED`] each scenario run of a workload must match
//! its pin below: a 64-bit FNV-1a digest of `RunSummary::fingerprint()`, the
//! completed-flow count and the mean FCT, bit for bit. `dc_large`'s two-shard runs
//! share its pins because the partitioned engine must reproduce the sequential one.
//! On a mismatch the benchmark prints the observed values in this file's syntax.

use crate::workloads::Workload;

/// What one scenario run must reproduce.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Check {
    /// FNV-1a digest of the run's determinism fingerprint.
    pub digest: u64,
    /// Completed top-level flows.
    pub completed: usize,
    /// Mean FCT over completed flows, seconds.
    pub mean_fct_s: Option<f64>,
}

impl Check {
    /// The check values of a run with `fingerprint`, `completed` flows and `mean_fct_s`.
    pub fn new(fingerprint: &str, completed: usize, mean_fct_s: Option<f64>) -> Check {
        Check {
            digest: fnv1a(fingerprint.as_bytes()),
            completed,
            mean_fct_s,
        }
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The pinned checks of a workload at the default seed, in run order.
pub fn pins(workload: Workload) -> &'static [Check] {
    match workload {
        Workload::DcLarge => DC_LARGE,
        Workload::WanPaced => WAN_PACED,
        Workload::Fig5aSweep => FIG5A_SWEEP,
    }
}

/// Packet transmissions (summed over links) of the workload at the default seed:
/// the input size `run_s` and `cpu_s` are scaled to.
pub fn reference_packets_tx(workload: Workload) -> u64 {
    match workload {
        Workload::DcLarge => 2_701_679,
        Workload::WanPaced => 2_422_870,
        Workload::Fig5aSweep => 9_437_375,
    }
}

const DC_LARGE: &[Check] = &[Check {
    digest: 0xc5a28f745bcb3c12,
    completed: 10000,
    mean_fct_s: Some(0.0009526829640999979),
}];

/// PDQ(Full), then TCP.
const WAN_PACED: &[Check] = &[
    Check {
        digest: 0x2e31c04248e27777,
        completed: 400,
        mean_fct_s: Some(0.18319714326249986),
    },
    Check {
        digest: 0xe3ac5798d8170c6e,
        completed: 400,
        mean_fct_s: Some(0.3874029346350001),
    },
];

/// The twelve cells in grid order (protocol-major: PDQ(Full), D3, RCP, TCP; then
/// rate: 500, 1000, 2000 flows/s), each under seeds 7, 8 and 9.
const FIG5A_SWEEP: &[Check] = &[
    Check {
        digest: 0x0a4626239398ed89,
        completed: 42,
        mean_fct_s: Some(0.014146014380952381),
    },
    Check {
        digest: 0x0c14734c46af9f44,
        completed: 45,
        mean_fct_s: Some(0.0019430814),
    },
    Check {
        digest: 0xbc635048abfd19f5,
        completed: 53,
        mean_fct_s: Some(0.005489280037735849),
    },
    Check {
        digest: 0x3bb6e9571cb881d9,
        completed: 84,
        mean_fct_s: Some(0.01317300986904762),
    },
    Check {
        digest: 0x1a6c3ac697f28c49,
        completed: 89,
        mean_fct_s: Some(0.0017670585955056179),
    },
    Check {
        digest: 0xdff777e0e387eb59,
        completed: 104,
        mean_fct_s: Some(0.004380415461538461),
    },
    Check {
        digest: 0x9440fafcddb21af4,
        completed: 175,
        mean_fct_s: Some(0.01625633696571429),
    },
    Check {
        digest: 0xf45f0bf26e918460,
        completed: 170,
        mean_fct_s: Some(0.003489965788235294),
    },
    Check {
        digest: 0x33e0159b14449313,
        completed: 187,
        mean_fct_s: Some(0.004281779229946524),
    },
    Check {
        digest: 0x6a6b4bdc7a765b34,
        completed: 42,
        mean_fct_s: Some(0.017635907690476193),
    },
    Check {
        digest: 0xbd4dc265ac1ca302,
        completed: 45,
        mean_fct_s: Some(0.0021073424666666666),
    },
    Check {
        digest: 0xc53bb9a0363a8758,
        completed: 53,
        mean_fct_s: Some(0.005963636377358491),
    },
    Check {
        digest: 0xac1e3756794a0a94,
        completed: 84,
        mean_fct_s: Some(0.016869122761904762),
    },
    Check {
        digest: 0x3fa851231862c699,
        completed: 89,
        mean_fct_s: Some(0.0020330817191011237),
    },
    Check {
        digest: 0xc734de068fac009b,
        completed: 104,
        mean_fct_s: Some(0.0049449088076923085),
    },
    Check {
        digest: 0x7b585b79a55af835,
        completed: 175,
        mean_fct_s: Some(0.023577460680000002),
    },
    Check {
        digest: 0xed491272564f8e4e,
        completed: 170,
        mean_fct_s: Some(0.004243988982352941),
    },
    Check {
        digest: 0xd0830b9073907cc8,
        completed: 187,
        mean_fct_s: Some(0.005105065743315509),
    },
    Check {
        digest: 0x5ba1138a0da6a1c3,
        completed: 42,
        mean_fct_s: Some(0.01755213742857143),
    },
    Check {
        digest: 0x9d9f7ecebfdb04a6,
        completed: 45,
        mean_fct_s: Some(0.002032893866666667),
    },
    Check {
        digest: 0xfa8e72fdf99482b1,
        completed: 53,
        mean_fct_s: Some(0.005816833811320755),
    },
    Check {
        digest: 0xe09884cbe816ddc9,
        completed: 84,
        mean_fct_s: Some(0.016652595464285717),
    },
    Check {
        digest: 0x49822dc2fc042df8,
        completed: 89,
        mean_fct_s: Some(0.0019231569325842697),
    },
    Check {
        digest: 0x12230679d9e9fcdb,
        completed: 104,
        mean_fct_s: Some(0.004727518557692307),
    },
    Check {
        digest: 0xb618c41ade41a8c8,
        completed: 175,
        mean_fct_s: Some(0.023375135571428573),
    },
    Check {
        digest: 0x7aebfd4ecee99350,
        completed: 170,
        mean_fct_s: Some(0.004035892088235295),
    },
    Check {
        digest: 0x6c0062dfcb59cc63,
        completed: 187,
        mean_fct_s: Some(0.004805110315508022),
    },
    Check {
        digest: 0x2c67d72208c74a9b,
        completed: 42,
        mean_fct_s: Some(0.020623340904761905),
    },
    Check {
        digest: 0x6281ed0fb49c8b06,
        completed: 45,
        mean_fct_s: Some(0.0023006016666666665),
    },
    Check {
        digest: 0x66bc66e03ec6458a,
        completed: 53,
        mean_fct_s: Some(0.014311336245283017),
    },
    Check {
        digest: 0x32ade14e79633da5,
        completed: 84,
        mean_fct_s: Some(0.029838576547619042),
    },
    Check {
        digest: 0x9097c36cc7b5662b,
        completed: 89,
        mean_fct_s: Some(0.00314873397752809),
    },
    Check {
        digest: 0x1df4d18c613e1a40,
        completed: 104,
        mean_fct_s: Some(0.015484023846153848),
    },
    Check {
        digest: 0x3f9c139d98bbec2a,
        completed: 175,
        mean_fct_s: Some(0.047900917977142875),
    },
    Check {
        digest: 0x67e7e8f78f1fa0b9,
        completed: 170,
        mean_fct_s: Some(0.00644881804117647),
    },
    Check {
        digest: 0x02f105ccd2a0c571,
        completed: 187,
        mean_fct_s: Some(0.019544971983957223),
    },
];
