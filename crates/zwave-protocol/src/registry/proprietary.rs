//! Proprietary command classes known only to chipset vendors under NDA.
//!
//! Section III-C2: "ZCover uncovered two additional proprietary CMDCLs
//! (`0x01` and `0x02`) that were absent from the official Z-Wave
//! specification". This module models them so that the simulated devices
//! under test can *implement* them — exactly the asymmetry the paper
//! exploits: the black-box fuzzer never reads these definitions; it only
//! learns through systematic validation testing that frames carrying these
//! CMDCLs are accepted.
//!
//! `0x01` is the Z-Wave protocol / network-management class. The paper's
//! Table III places seven of the fifteen bugs here, on commands `0x02`
//! (request node info), `0x04` (find nodes in range) and `0x0D` (node
//! registration in controller NVM).

use crate::command_class::CommandClassId;
use crate::command_class::CommandKind::{Get, Other, Report, Set};
use crate::command_class::CommandRole::{Controlling, Supporting};

use super::FunctionalCluster::Network;
use super::{CommandClassSpec, CommandSpec, ParamSpec};

const ANY: ParamSpec = ParamSpec::BitMask;
const NODE: ParamSpec = ParamSpec::NodeId;

/// Z-Wave protocol command: broadcast node information frame (NIF).
pub(crate) const CMD_NODE_INFO: u8 = 0x01;
/// Z-Wave protocol command: request a node's NIF (ZCover's active scan).
pub(crate) const CMD_REQUEST_NODE_INFO: u8 = 0x02;
/// Z-Wave protocol command: assign home/node ids during inclusion.
pub(crate) const CMD_ASSIGN_IDS: u8 = 0x03;
/// Z-Wave protocol command: neighbour discovery sweep (bug #14 keeps the
/// controller "busy searching for non-existent Z-Wave devices" here).
pub(crate) const CMD_FIND_NODES_IN_RANGE: u8 = 0x04;
/// Z-Wave protocol command: node registration in controller NVM (bugs
/// #01-#04 and #12 tamper with the node database through this command).
pub(crate) const CMD_NEW_NODE_REGISTERED: u8 = 0x0D;

/// The Z-Wave protocol class (`0x01`), as implemented by vendor firmware.
pub static ZWAVE_PROTOCOL: CommandClassSpec = CommandClassSpec {
    id: CommandClassId(0x01),
    name: "ZWAVE_PROTOCOL",
    cluster: Network,
    version: 1,
    commands: &[
        CommandSpec {
            id: CMD_NODE_INFO,
            name: "NODE_INFO",
            kind: Report,
            role: Supporting,
            params: &[ANY, ANY, ANY, ANY],
        },
        CommandSpec {
            id: CMD_REQUEST_NODE_INFO,
            name: "REQUEST_NODE_INFO",
            kind: Get,
            role: Controlling,
            params: &[],
        },
        CommandSpec {
            id: CMD_ASSIGN_IDS,
            name: "ASSIGN_IDS",
            kind: Set,
            role: Controlling,
            params: &[ANY, ANY, ANY, ANY, NODE],
        },
        CommandSpec {
            id: CMD_FIND_NODES_IN_RANGE,
            name: "FIND_NODES_IN_RANGE",
            kind: Set,
            role: Controlling,
            params: &[ParamSpec::Size { max: 29 }, ANY, ANY],
        },
        CommandSpec {
            id: 0x05,
            name: "GET_NODES_IN_RANGE",
            kind: Get,
            role: Controlling,
            params: &[],
        },
        CommandSpec {
            id: 0x06,
            name: "RANGE_INFO",
            kind: Report,
            role: Supporting,
            params: &[ParamSpec::Size { max: 29 }, ANY],
        },
        CommandSpec {
            id: 0x07,
            name: "COMMAND_COMPLETE",
            kind: Other,
            role: Supporting,
            params: &[ANY],
        },
        CommandSpec {
            id: 0x08,
            name: "TRANSFER_PRESENTATION",
            kind: Other,
            role: Controlling,
            params: &[ANY],
        },
        CommandSpec {
            id: 0x09,
            name: "TRANSFER_NODE_INFO",
            kind: Other,
            role: Controlling,
            params: &[ANY, NODE, ANY, ANY],
        },
        CommandSpec {
            id: 0x0A,
            name: "TRANSFER_RANGE_INFO",
            kind: Other,
            role: Controlling,
            params: &[ANY, NODE, ANY],
        },
        CommandSpec {
            id: 0x0B,
            name: "TRANSFER_END",
            kind: Other,
            role: Controlling,
            params: &[ANY],
        },
        CommandSpec {
            id: 0x0C,
            name: "ASSIGN_RETURN_ROUTE",
            kind: Set,
            role: Controlling,
            params: &[NODE, NODE, ANY],
        },
        CommandSpec {
            id: CMD_NEW_NODE_REGISTERED,
            name: "NEW_NODE_REGISTERED",
            kind: Set,
            role: Controlling,
            // node id, capability, security, basic/generic/specific type,
            // then the supported-CMDCL list.
            params: &[NODE, ANY, ANY, ParamSpec::Enum(&[0x01, 0x02, 0x03, 0x04]), ANY, ANY],
        },
        CommandSpec {
            id: 0x0E,
            name: "NEW_RANGE_REGISTERED",
            kind: Set,
            role: Controlling,
            params: &[NODE, ParamSpec::Size { max: 29 }, ANY],
        },
        CommandSpec {
            id: 0x0F,
            name: "TRANSFER_NEW_PRIMARY_COMPLETE",
            kind: Other,
            role: Controlling,
            params: &[ANY],
        },
        CommandSpec {
            id: 0x10,
            name: "AUTOMATIC_CONTROLLER_UPDATE_START",
            kind: Other,
            role: Controlling,
            params: &[],
        },
        CommandSpec {
            id: 0x11,
            name: "SUC_NODE_ID",
            kind: Report,
            role: Supporting,
            params: &[NODE, ANY],
        },
        CommandSpec {
            id: 0x12,
            name: "SET_SUC",
            kind: Set,
            role: Controlling,
            params: &[ANY, ANY],
        },
        CommandSpec {
            id: 0x13,
            name: "SET_SUC_ACK",
            kind: Other,
            role: Supporting,
            params: &[ANY, ANY],
        },
        CommandSpec {
            id: 0x14,
            name: "ASSIGN_SUC_RETURN_ROUTE",
            kind: Set,
            role: Controlling,
            params: &[NODE, ANY, ANY],
        },
        CommandSpec {
            id: 0x15,
            name: "STATIC_ROUTE_REQUEST",
            kind: Get,
            role: Controlling,
            params: &[NODE, NODE, NODE],
        },
        CommandSpec { id: 0x16, name: "LOST", kind: Other, role: Supporting, params: &[NODE] },
    ],
};

/// The Zensor-Net class (`0x02`), the second proprietary class uncovered by
/// validation testing.
pub static ZENSOR_NET: CommandClassSpec = CommandClassSpec {
    id: CommandClassId(0x02),
    name: "ZENSOR_NET",
    cluster: Network,
    version: 1,
    commands: &[
        CommandSpec {
            id: 0x01,
            name: "ZENSOR_BIND_REQUEST",
            kind: Set,
            role: Controlling,
            params: &[NODE, ANY],
        },
        CommandSpec {
            id: 0x02,
            name: "ZENSOR_BIND_ACCEPT",
            kind: Report,
            role: Supporting,
            params: &[NODE],
        },
        CommandSpec {
            id: 0x03,
            name: "ZENSOR_SENSOR_DATA",
            kind: Report,
            role: Supporting,
            params: &[ANY, ANY, ANY],
        },
    ],
};

/// Both proprietary classes, for iteration by the device simulations.
pub fn all() -> [&'static CommandClassSpec; 2] {
    [&ZWAVE_PROTOCOL, &ZENSOR_NET]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_class_has_the_table3_commands() {
        for cmd in [CMD_REQUEST_NODE_INFO, CMD_FIND_NODES_IN_RANGE, CMD_NEW_NODE_REGISTERED] {
            assert!(ZWAVE_PROTOCOL.command(cmd).is_some(), "missing 0x01/{cmd:#04X}");
        }
    }

    #[test]
    fn protocol_class_outranks_every_public_class_except_nm_inclusion() {
        // 22 commands: when validation testing reveals this class, its
        // command surface justifies the high fuzzing priority that makes
        // the paper's Figure 12 discoveries cluster early.
        assert_eq!(ZWAVE_PROTOCOL.command_count(), 22);
    }

    #[test]
    fn ids_are_the_validation_testing_pair() {
        assert_eq!(ZWAVE_PROTOCOL.id, CommandClassId(0x01));
        assert_eq!(ZENSOR_NET.id, CommandClassId(0x02));
        assert_eq!(all()[0].id.0, 0x01);
    }

    #[test]
    fn new_node_registered_node_type_values_are_valid_basic_types() {
        let cmd = ZWAVE_PROTOCOL.command(CMD_NEW_NODE_REGISTERED).unwrap();
        // Param 3 is the basic device type: controller, static controller,
        // slave, routing slave.
        assert!(cmd.params[3].is_valid(0x04));
        assert!(!cmd.params[3].is_valid(0x05));
    }
}
