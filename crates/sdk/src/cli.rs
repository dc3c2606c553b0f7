//! The AnDrone command-line utility.
//!
//! "For advanced end users, who may not be using an app, AnDrone's
//! SDK functionality is also made available to them via a command
//! line utility" (paper Section 5). Runs inside a virtual drone's
//! remote console.

use crate::sdk::AndroneSdk;

/// Executes one CLI command against the SDK, returning the output
/// the user sees.
pub fn run_command(sdk: &AndroneSdk, line: &str) -> String {
    let mut parts = line.split_whitespace();
    match parts.next() {
        Some("energy-left") => format!("{:.0} J", sdk.get_allotted_energy_left()),
        Some("time-left") => format!("{:.0} s", sdk.get_allotted_time_left()),
        Some("fc-ip") => sdk.get_flight_controller_ip().to_string(),
        Some("waypoint-completed") => {
            sdk.waypoint_completed();
            "ok".to_string()
        }
        Some("mark-file") => match parts.next() {
            Some(path) => {
                sdk.mark_file_for_user(path);
                format!("marked {path}")
            }
            None => "usage: mark-file <path>".to_string(),
        },
        Some("help") | None => "commands: energy-left | time-left | fc-ip | \
             waypoint-completed | mark-file <path>"
            .to_string(),
        Some(other) => format!("unknown command '{other}' (try 'help')"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    use androne_simkern::ContainerId;
    use androne_vdc::{AccessTable, Vdc, VirtualDroneSpec};

    fn sdk() -> (Rc<RefCell<Vdc>>, AndroneSdk) {
        let access = Rc::new(RefCell::new(AccessTable::new()));
        let vdc = Rc::new(RefCell::new(Vdc::new(access)));
        vdc.borrow_mut()
            .register("vd1", ContainerId(10), VirtualDroneSpec::example_survey());
        let sdk = AndroneSdk::new(vdc.clone(), "vd1");
        (vdc, sdk)
    }

    #[test]
    fn queries_format_budgets() {
        let (_, sdk) = sdk();
        assert_eq!(run_command(&sdk, "energy-left"), "45000 J");
        assert_eq!(run_command(&sdk, "time-left"), "600 s");
    }

    #[test]
    fn mark_file_and_completion_take_effect() {
        let (vdc, sdk) = sdk();
        assert_eq!(
            run_command(&sdk, "mark-file /data/x.jpg"),
            "marked /data/x.jpg"
        );
        assert_eq!(run_command(&sdk, "waypoint-completed"), "ok");
        assert!(vdc.borrow().record("vd1").unwrap().waypoint_done);
        assert_eq!(vdc.borrow().record("vd1").unwrap().marked_files.len(), 1);
    }

    #[test]
    fn unknown_and_help() {
        let (_, sdk) = sdk();
        assert!(run_command(&sdk, "frobnicate").contains("unknown command"));
        assert!(run_command(&sdk, "help").contains("energy-left"));
        assert!(run_command(&sdk, "mark-file").contains("usage"));
    }
}
