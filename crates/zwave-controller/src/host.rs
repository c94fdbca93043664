//! Host-side software attached to the devices under test: the Windows
//! "Z-Wave PC Controller" program driving the USB-stick controllers
//! (D1-D5) and the SmartThings cloud/app link of the Samsung hubs (D6-D7).
//!
//! Two of the paper's bugs live *here* rather than in the stick itself:
//! bug #06 crashes the PC controller program repeatedly, and bug #13 puts
//! it into a persistent DoS. Bug #05 is a DoS of the smartphone app.

/// State of the Z-Wave PC Controller program on the operator's laptop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HostState {
    /// Running normally.
    #[default]
    Running,
    /// Crashed; restarts when the operator intervenes (bug #06: "the
    /// program only functions normally if the attack stops").
    Crashed,
    /// Persistent denial of service (bug #13: "the issue persists
    /// indefinitely ... until the software is manually restarted or
    /// patched").
    DeniedService,
}

/// The PC controller program model.
#[derive(Debug, Clone, Default)]
pub struct HostProgram {
    state: HostState,
    crash_count: u32,
}

impl HostProgram {
    /// A freshly started program.
    pub(crate) fn new() -> Self {
        HostProgram::default()
    }

    /// Current state.
    pub fn state(&self) -> HostState {
        self.state
    }

    /// Whether the operator can currently control devices through it.
    pub fn is_usable(&self) -> bool {
        self.state == HostState::Running
    }

    /// Number of crashes so far.
    pub fn crash_count(&self) -> u32 {
        self.crash_count
    }

    /// Crash the program (bug #06).
    pub(crate) fn crash(&mut self) {
        self.crash_count += 1;
        self.state = HostState::Crashed;
    }

    /// Enter persistent DoS (bug #13).
    pub(crate) fn deny_service(&mut self) {
        self.state = HostState::DeniedService;
    }

    /// Operator restarts the program.
    pub(crate) fn restart(&mut self) {
        self.state = HostState::Running;
    }
}

/// State of the SmartThings smartphone-app link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AppState {
    /// The homeowner can control devices from the app.
    #[default]
    Reachable,
    /// Bug #05: "the homeowner was unable to control the smart switch due
    /// to the controller processing the malicious packet".
    DeniedService,
}

/// The cloud/app link model for the Samsung hubs.
#[derive(Debug, Clone, Default)]
pub struct AppLink {
    state: AppState,
}

impl AppLink {
    /// A healthy link.
    pub(crate) fn new() -> Self {
        AppLink::default()
    }

    /// Current state.
    pub fn state(&self) -> AppState {
        self.state
    }

    /// Puts the app link into denial of service.
    pub(crate) fn deny_service(&mut self) {
        self.state = AppState::DeniedService;
    }

    /// Recovery after the attack stops and the hub re-syncs.
    pub(crate) fn recover(&mut self) {
        self.state = AppState::Reachable;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_crash_and_restart_cycle() {
        let mut host = HostProgram::new();
        assert!(host.is_usable());
        host.crash();
        assert_eq!(host.state(), HostState::Crashed);
        assert!(!host.is_usable());
        assert_eq!(host.crash_count(), 1);
        host.restart();
        assert!(host.is_usable());
        host.crash();
        assert_eq!(host.crash_count(), 2);
    }

    #[test]
    fn host_dos_persists_until_restart() {
        let mut host = HostProgram::new();
        host.deny_service();
        assert_eq!(host.state(), HostState::DeniedService);
        assert!(!host.is_usable());
        host.restart();
        assert!(host.is_usable());
    }

    #[test]
    fn app_dos_and_recovery() {
        let mut app = AppLink::new();
        assert_eq!(app.state(), AppState::Reachable);
        app.deny_service();
        assert_eq!(app.state(), AppState::DeniedService);
        app.recover();
        assert_eq!(app.state(), AppState::Reachable);
    }
}
