//! Death-notification (`linkToDeath`) tests: how clients learn that
//! a service they depend on has died.

use std::cell::RefCell;
use std::rc::Rc;

use androne_binder::{BinderDriver, BinderError, BinderService, Parcel, TransactionContext};
use androne_container::DeviceNamespaceId;
use androne_simkern::{ContainerId, Euid, Pid};

struct Null;

impl BinderService for Null {
    fn on_transact(
        &mut self,
        _code: u32,
        _data: &Parcel,
        _ctx: &TransactionContext,
        _driver: &mut BinderDriver,
    ) -> Result<Parcel, BinderError> {
        Ok(Parcel::new())
    }
}

fn setup() -> (BinderDriver, Pid, Pid, u32) {
    let mut d = BinderDriver::new();
    let server = Pid(10);
    let client = Pid(20);
    d.open(server, Euid(1000), ContainerId(1), DeviceNamespaceId(1));
    d.open(client, Euid(10_000), ContainerId(2), DeviceNamespaceId(2));
    let server_handle = d.create_node(server, Rc::new(RefCell::new(Null))).unwrap();

    // Distribute the handle as AnDrone does: the server's namespace
    // is the device container; the service is published into the
    // client's namespace via PUBLISH_TO_ALL_NS and resolved through
    // the client's own ServiceManager.
    use androne_binder::{add_service, get_service, ServiceManager};
    d.set_device_container(ContainerId(1), DeviceNamespaceId(1));
    let sm = ServiceManager::new_device_container(server, ["svc".to_string()]);
    let smh = d.create_node(server, Rc::new(RefCell::new(sm))).unwrap();
    d.set_context_manager(server, smh).unwrap();
    let sm2_pid = Pid(21);
    d.open(sm2_pid, Euid(1000), ContainerId(2), DeviceNamespaceId(2));
    let sm2 = ServiceManager::new(sm2_pid);
    let smh2 = d.create_node(sm2_pid, Rc::new(RefCell::new(sm2))).unwrap();
    d.set_context_manager(sm2_pid, smh2).unwrap();
    add_service(&mut d, server, "svc", server_handle).unwrap();
    let client_handle = get_service(&mut d, client, "svc").unwrap();
    (d, server, client, client_handle)
}

#[test]
fn watcher_is_notified_when_the_node_dies() {
    let (mut d, server, client, handle) = setup();
    d.link_to_death(client, handle).unwrap();
    assert!(d.poll_death_notifications(client).is_empty());
    d.kill_process(server);
    assert_eq!(d.poll_death_notifications(client), vec![handle]);
    // The queue drains once.
    assert!(d.poll_death_notifications(client).is_empty());
}

#[test]
fn unlinked_clients_get_no_notification() {
    let (mut d, server, client, _) = setup();
    d.kill_process(server);
    assert!(d.poll_death_notifications(client).is_empty());
}

#[test]
fn linking_to_a_dead_node_fails_fast() {
    let (mut d, server, client, handle) = setup();
    d.kill_process(server);
    assert_eq!(
        d.link_to_death(client, handle),
        Err(BinderError::DeadObject)
    );
}

#[test]
fn double_kill_notifies_once() {
    let (mut d, server, client, handle) = setup();
    d.link_to_death(client, handle).unwrap();
    d.kill_process(server);
    d.kill_process(server);
    assert_eq!(d.poll_death_notifications(client).len(), 1);
}
