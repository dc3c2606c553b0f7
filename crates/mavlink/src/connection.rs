//! Simulated MAVLink connections.
//!
//! A [`channel`] produces two connected endpoints. Bytes sent from
//! one side arrive at the other after a delay sampled from the link
//! model (or never, if the packet is lost) — this is how the Section
//! 6.5 cellular-latency experiment drives real encoded MAVLink
//! traffic through the LTE model.

use std::cell::RefCell;
use std::rc::Rc;

use androne_simkern::{LinkModel, LinkState, SimTime};
use rand::Rng;

use crate::codec::{Frame, Parser};
use crate::message::Message;

/// Pending deliveries: `(delivery time, insertion order, bytes)`.
/// The insertion counter keeps same-instant deliveries FIFO.
#[derive(Default)]
struct InboxInner {
    next_seq: u64,
    items: Vec<(SimTime, u64, Vec<u8>)>,
}

type Inbox = Rc<RefCell<InboxInner>>;

/// One side of a simulated MAVLink link.
pub struct MavEndpoint {
    /// This endpoint's system id (stamped on outgoing frames).
    pub sysid: u8,
    /// This endpoint's component id.
    pub compid: u8,
    link: LinkModel,
    /// Gilbert–Elliott chain state for this direction (idle when the
    /// model has no burst parameters).
    link_state: LinkState,
    peer_inbox: Inbox,
    own_inbox: Inbox,
    parser: Parser,
    seq: u8,
    sent: u64,
    lost: u64,
}

/// Creates a connected endpoint pair over `link` (applied in both
/// directions independently).
pub fn channel(link: LinkModel, sysid_a: u8, sysid_b: u8) -> (MavEndpoint, MavEndpoint) {
    let inbox_a: Inbox = Rc::new(RefCell::new(InboxInner::default()));
    let inbox_b: Inbox = Rc::new(RefCell::new(InboxInner::default()));
    let a = MavEndpoint {
        sysid: sysid_a,
        compid: 1,
        link,
        link_state: LinkState::default(),
        peer_inbox: Rc::clone(&inbox_b),
        own_inbox: Rc::clone(&inbox_a),
        parser: Parser::new(),
        seq: 0,
        sent: 0,
        lost: 0,
    };
    let b = MavEndpoint {
        sysid: sysid_b,
        compid: 1,
        link,
        link_state: LinkState::default(),
        peer_inbox: inbox_a,
        own_inbox: inbox_b,
        parser: Parser::new(),
        seq: 0,
        sent: 0,
        lost: 0,
    };
    (a, b)
}

impl MavEndpoint {
    /// Sends a message at simulated time `now`. Returns the delivery
    /// time at the peer, or `None` if the packet was lost.
    pub fn send(&mut self, msg: Message, now: SimTime, rng: &mut impl Rng) -> Option<SimTime> {
        let frame = Frame {
            seq: self.seq,
            sysid: self.sysid,
            compid: self.compid,
            msg,
        };
        self.seq = self.seq.wrapping_add(1);
        self.sent += 1;
        match self.link.sample_with(&mut self.link_state, rng) {
            Some(delay) => {
                let at = now + delay;
                let mut inbox = self.peer_inbox.borrow_mut();
                let seq = inbox.next_seq;
                inbox.next_seq += 1;
                inbox.items.push((at, seq, frame.encode()));
                Some(at)
            }
            None => {
                self.lost += 1;
                None
            }
        }
    }

    /// Receives every frame whose delivery time has passed, in
    /// delivery order.
    pub fn recv(&mut self, now: SimTime) -> Vec<Frame> {
        let mut ready: Vec<(SimTime, u64, Vec<u8>)> = Vec::new();
        {
            let mut inbox = self.own_inbox.borrow_mut();
            let mut i = 0;
            while i < inbox.items.len() {
                if inbox.items[i].0 <= now {
                    ready.push(inbox.items.swap_remove(i));
                } else {
                    i += 1;
                }
            }
        }
        ready.sort_by_key(|(t, seq, _)| (*t, *seq));
        let mut frames = Vec::new();
        for (_, _, bytes) in ready {
            frames.extend(self.parser.push(&bytes));
        }
        frames
    }

    /// Packets sent from this endpoint.
    pub fn packets_sent(&self) -> u64 {
        self.sent
    }

    /// Packets lost in the link from this endpoint.
    pub fn packets_lost(&self) -> u64 {
        self.lost
    }

    /// Frames dropped by the parser (corruption).
    pub fn frames_dropped(&self) -> u64 {
        self.parser.dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::FlightMode;
    use androne_simkern::stream_rng;
    use androne_simkern::SimDuration;

    fn hb() -> Message {
        Message::Heartbeat {
            mode: FlightMode::Guided,
            armed: false,
            system_status: 3,
        }
    }

    #[test]
    fn ideal_link_delivers_immediately() {
        let (mut a, mut b) = channel(LinkModel::IDEAL, 255, 1);
        let mut rng = stream_rng(1);
        let t = SimTime::from_nanos(1_000);
        a.send(hb(), t, &mut rng).unwrap();
        let frames = b.recv(t);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].sysid, 255);
    }

    #[test]
    fn delivery_respects_link_delay() {
        let (mut a, mut b) = channel(LinkModel::cellular_lte(), 255, 1);
        let mut rng = stream_rng(2);
        let t0 = SimTime::ZERO;
        let at = a.send(hb(), t0, &mut rng).unwrap();
        assert!(at > t0 + SimDuration::from_millis(60), "LTE delay applies");
        assert!(b.recv(t0).is_empty(), "nothing before delivery time");
        assert_eq!(b.recv(at).len(), 1);
    }

    #[test]
    fn bidirectional_traffic_is_independent() {
        let (mut a, mut b) = channel(LinkModel::IDEAL, 255, 1);
        let mut rng = stream_rng(3);
        let t = SimTime::ZERO;
        a.send(hb(), t, &mut rng);
        b.send(hb(), t, &mut rng);
        assert_eq!(a.recv(t).len(), 1);
        assert_eq!(b.recv(t).len(), 1);
    }

    #[test]
    fn lost_packets_never_arrive() {
        let lossy = LinkModel {
            loss_prob: 1.0,
            ..LinkModel::IDEAL
        };
        let (mut a, mut b) = channel(lossy, 255, 1);
        let mut rng = stream_rng(4);
        assert!(a.send(hb(), SimTime::ZERO, &mut rng).is_none());
        assert_eq!(a.packets_lost(), 1);
        assert!(b.recv(SimTime::from_nanos(u64::MAX / 2)).is_empty());
    }

    #[test]
    fn sequence_numbers_increment() {
        let (mut a, mut b) = channel(LinkModel::IDEAL, 255, 1);
        let mut rng = stream_rng(5);
        let t = SimTime::ZERO;
        for _ in 0..3 {
            a.send(hb(), t, &mut rng);
        }
        let frames = b.recv(t);
        let seqs: Vec<u8> = frames.iter().map(|f| f.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }
}
