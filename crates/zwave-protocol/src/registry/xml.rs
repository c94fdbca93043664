//! XML export of the command-class registry.
//!
//! ZCover's discovery phase parses "an XML file listing Z-Wave application
//! layer CMDCL definitions" (Section III-C1, the libzwaveip
//! `ZWave_custom_cmd_classes.xml`). This module renders our registry in
//! that spirit, so the specification data can be exported and diffed
//! against upstream (`zcover export-spec`). Nothing reads XML back: the
//! specification is compiled in (`registry/data.rs`).

use std::fmt::Write as _;

use super::{FunctionalCluster, ParamSpec, Registry};

fn cluster_label(cluster: FunctionalCluster) -> &'static str {
    match cluster {
        FunctionalCluster::ApplicationFunctionality => "application",
        FunctionalCluster::TransportEncapsulation => "transport",
        FunctionalCluster::Management => "management",
        FunctionalCluster::Network => "network",
        FunctionalCluster::SensorActuator => "sensor-actuator",
        FunctionalCluster::ClimateEnergy => "climate-energy",
        FunctionalCluster::DisplayAv => "display-av",
        FunctionalCluster::Specialised => "specialised",
    }
}

fn param_to_xml(param: &ParamSpec) -> String {
    match param {
        ParamSpec::Byte { min, max } => {
            format!("<param type=\"byte\" min=\"0x{min:02X}\" max=\"0x{max:02X}\"/>")
        }
        ParamSpec::Enum(values) => {
            let list: Vec<String> = values.iter().map(|v| format!("0x{v:02X}")).collect();
            format!("<param type=\"enum\" values=\"{}\"/>", list.join(","))
        }
        ParamSpec::NodeId => "<param type=\"nodeid\"/>".to_string(),
        ParamSpec::BitMask => "<param type=\"bitmask\"/>".to_string(),
        ParamSpec::Size { max } => format!("<param type=\"size\" max=\"0x{max:02X}\"/>"),
    }
}

/// Renders the full registry as an XML document.
pub fn to_xml(registry: &Registry) -> String {
    let mut out = String::from("<?xml version=\"1.0\" encoding=\"utf-8\"?>\n<zw_classes>\n");
    for spec in registry.iter() {
        let _ = writeln!(
            out,
            "  <cmd_class key=\"0x{:02X}\" name=\"{}\" version=\"{}\" cluster=\"{}\">",
            spec.id.0,
            spec.name,
            spec.version,
            cluster_label(spec.cluster)
        );
        for cmd in spec.commands {
            let _ = writeln!(
                out,
                "    <cmd key=\"0x{:02X}\" name=\"{}\" kind=\"{}\" role=\"{}\">",
                cmd.id, cmd.name, cmd.kind, cmd.role
            );
            for param in cmd.params {
                let _ = writeln!(out, "      {}", param_to_xml(param));
            }
            out.push_str("    </cmd>\n");
        }
        out.push_str("  </cmd_class>\n");
    }
    out.push_str("</zw_classes>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the whole export: a dropped or reformatted field moves the
    /// length or the FNV-1a-64 digest.
    #[test]
    fn export_is_pinned() {
        let xml = to_xml(Registry::global());
        let digest = xml.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        });
        assert_eq!((xml.len(), digest), (92_145, 0x4206_FC0E_F6BB_7C5F));
        assert_eq!(xml.matches("<cmd_class ").count(), 122);
        let commands: usize = Registry::global().iter().map(|c| c.commands.len()).sum();
        assert_eq!(xml.matches("<cmd ").count(), commands);
    }

    #[test]
    fn export_contains_the_known_landmarks() {
        let xml = to_xml(Registry::global());
        assert!(xml.contains("<cmd_class key=\"0x9F\" name=\"COMMAND_CLASS_SECURITY_2\""));
        assert!(xml.contains("BASIC_SET"));
        assert!(xml.contains("cluster=\"transport\""));
        assert!(xml.starts_with("<?xml"));
    }
}
