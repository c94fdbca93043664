//! The paper's reported numbers, used to print "paper vs measured" in
//! every regenerated table.

/// One Table III row as reported by the paper.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PaperBug {
    /// Bug id (1-15).
    pub id: u8,
    /// Affected devices as reported.
    pub affected: &'static str,
    /// CMDCL byte.
    pub cmdcl: u8,
    /// CMD byte.
    pub cmd: u8,
    /// Description column.
    pub description: &'static str,
    /// Duration column.
    pub duration: &'static str,
    /// Root cause column.
    pub root_cause: &'static str,
    /// Confirmed column (CVE id or vendor acknowledgement).
    pub confirmed: &'static str,
}

/// Table III of the paper.
pub(crate) const TABLE3: [PaperBug; 15] = [
    PaperBug {
        id: 1,
        affected: "D1 - D7",
        cmdcl: 0x01,
        cmd: 0x0D,
        description: "Memory corruption in existing device properties.",
        duration: "Infinite",
        root_cause: "Specification",
        confirmed: "CVE-2024-50929",
    },
    PaperBug {
        id: 2,
        affected: "D1 - D7",
        cmdcl: 0x01,
        cmd: 0x0D,
        description: "Fake device insertion into controller's memory.",
        duration: "Infinite",
        root_cause: "Specification",
        confirmed: "CVE-2024-50920",
    },
    PaperBug {
        id: 3,
        affected: "D1 - D7",
        cmdcl: 0x01,
        cmd: 0x0D,
        description: "Remove valid device in the controller's memory.",
        duration: "Infinite",
        root_cause: "Specification",
        confirmed: "CVE-2024-50931",
    },
    PaperBug {
        id: 4,
        affected: "D1 - D7",
        cmdcl: 0x01,
        cmd: 0x0D,
        description: "Overwriting the controller's device database.",
        duration: "Infinite",
        root_cause: "Specification",
        confirmed: "CVE-2024-50930",
    },
    PaperBug {
        id: 5,
        affected: "D6 and D7",
        cmdcl: 0x01,
        cmd: 0x02,
        description: "DoS on smartphone app.",
        duration: "Infinite",
        root_cause: "Specification",
        confirmed: "CVE-2024-50921",
    },
    PaperBug {
        id: 6,
        affected: "D1 - D5",
        cmdcl: 0x9F,
        cmd: 0x01,
        description: "Z-Wave PC controller program crash.",
        duration: "Infinite",
        root_cause: "Implementation",
        confirmed: "CVE-2023-6640",
    },
    PaperBug {
        id: 7,
        affected: "D1 - D7",
        cmdcl: 0x5A,
        cmd: 0x01,
        description: "Service interruption during the attack.",
        duration: "68 sec",
        root_cause: "Specification",
        confirmed: "CVE-2023-6533",
    },
    PaperBug {
        id: 8,
        affected: "D1 - D7",
        cmdcl: 0x59,
        cmd: 0x03,
        description: "Service interruption during the attack.",
        duration: "67 sec",
        root_cause: "Specification",
        confirmed: "CVE-2024-50924",
    },
    PaperBug {
        id: 9,
        affected: "D1 - D7",
        cmdcl: 0x7A,
        cmd: 0x01,
        description: "Service interruption during the attack.",
        duration: "63 sec",
        root_cause: "Specification",
        confirmed: "CVE-2023-6642",
    },
    PaperBug {
        id: 10,
        affected: "D1 - D7",
        cmdcl: 0x86,
        cmd: 0x13,
        description: "Service interruption during the attack.",
        duration: "4 sec",
        root_cause: "Specification",
        confirmed: "CVE-2023-6641",
    },
    PaperBug {
        id: 11,
        affected: "D1 - D7",
        cmdcl: 0x59,
        cmd: 0x05,
        description: "Service interruption during the attack.",
        duration: "62 sec",
        root_cause: "Specification",
        confirmed: "CVE-2023-6643",
    },
    PaperBug {
        id: 12,
        affected: "D1 - D7",
        cmdcl: 0x01,
        cmd: 0x0D,
        description: "Remove the device's wakeup interval value.",
        duration: "Infinite",
        root_cause: "Specification",
        confirmed: "CVE-2024-50928",
    },
    PaperBug {
        id: 13,
        affected: "D1 - D5",
        cmdcl: 0x73,
        cmd: 0x04,
        description: "Dos on the Z-Wave PC controller program.",
        duration: "Infinite",
        root_cause: "Implementation",
        confirmed: "vendor-ack",
    },
    PaperBug {
        id: 14,
        affected: "D1 - D7",
        cmdcl: 0x01,
        cmd: 0x04,
        description: "Z-Wave controller service disruption.",
        duration: "4 min",
        root_cause: "Specification",
        confirmed: "vendor-ack",
    },
    PaperBug {
        id: 15,
        affected: "D1 - D7",
        cmdcl: 0x7A,
        cmd: 0x03,
        description: "Service interruption during the attack.",
        duration: "59 sec",
        root_cause: "Specification",
        confirmed: "vendor-ack",
    },
];

/// Table IV as reported: (idx, home id, node id, known, unknown).
pub(crate) const TABLE4: [(&str, u32, u8, usize, usize); 7] = [
    ("D1", 0xE7DE3F3D, 0x01, 17, 28),
    ("D2", 0xCD007171, 0x01, 17, 28),
    ("D3", 0xCB51722D, 0x01, 15, 30),
    ("D4", 0xC7E9DD54, 0x01, 17, 28),
    ("D5", 0xF4C3754D, 0x01, 15, 30),
    ("D6", 0xCB95A34A, 0x01, 17, 28),
    ("D7", 0xEDC87EE4, 0x01, 15, 30),
];

/// Table V as reported: (idx, vfuzz #vul, zcover #vul). Coverage columns
/// are constant: VFuzz 256/256, ZCover 45/53.
pub(crate) const TABLE5: [(&str, usize, usize); 5] =
    [("D1", 1, 15), ("D2", 3, 15), ("D3", 0, 15), ("D4", 4, 15), ("D5", 0, 15)];

/// Table VI as reported: (configuration, #vul in one hour on D1).
pub(crate) const TABLE6: [(&str, usize); 3] = [
    ("ZCover full (Known + Unknown CMDCLs + Position-Sensitive Mutation)", 15),
    ("ZCover beta (Known CMDCLs Only + Position-Sensitive Mutation)", 8),
    ("ZCover gamma (Random CMDCLs + No Position-Sensitive Mutation)", 6),
];

/// Figure 5's command-count series (16 bars).
pub(crate) const FIGURE5_SERIES: [usize; 16] = [23, 15, 11, 10, 8, 7, 6, 6, 5, 4, 3, 2, 2, 1, 1, 0];

/// Table II rows: (idx, brand, type, model (year), encryption support).
pub(crate) const TABLE2: [(&str, &str, &str, &str, &str); 9] = [
    ("D1", "ZooZ", "Controller", "ZST10 (2022)", "Yes"),
    ("D2", "SiLab", "Controller", "UZB-7 (2019)", "Yes"),
    ("D3", "Nortek", "Controller", "HUSBZB-1 (2015)", "Yes"),
    ("D4", "Aeotec", "Controller", "ZW090-A (2015)", "Yes"),
    ("D5", "ZWaveMe", "Controller", "ZMEUUZB1 (2015)", "Yes"),
    ("D6", "Samsung", "Controller", "ET-WV520 (2017)", "Yes"),
    ("D7", "Samsung", "Controller", "STH-ETH-200 (2015)", "Yes"),
    ("D8", "Schlage", "Door Lock", "BE469ZP (2019)", "Yes"),
    ("D9", "GE Jasco", "Smart Switch", "ZW4201 (2016)", "No"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifteen_paper_bugs_with_twelve_cves() {
        assert_eq!(TABLE3.len(), 15);
        let cves = TABLE3.iter().filter(|b| b.confirmed.starts_with("CVE-")).count();
        assert_eq!(cves, 12);
        assert_eq!(TABLE3.iter().find(|b| b.id == 7).unwrap().duration, "68 sec");
    }

    #[test]
    fn table4_counts_sum_to_45() {
        for (_, _, _, known, unknown) in TABLE4 {
            assert_eq!(known + unknown, 45);
        }
    }

    #[test]
    fn figure5_series_is_sorted_descending() {
        for w in FIGURE5_SERIES.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }
}
