//! The basic communication methods: `connect / send / receive / close`.
//!
//! A [`Channel`] wraps a per-device-type [`LinkModel`] and speaks the
//! [`Message`] wire format. "Each type of devices inherits this interface in
//! its own communication module" (§3.3) — here the per-type behaviour is the
//! link parameters plus the [`endpoint`](crate::endpoint) request handler.

use aorta_sim::{LinkModel, SimDuration, SimRng};

use crate::Message;

/// A request/response exchange result.
#[derive(Debug, Clone, PartialEq)]
pub enum Exchange {
    /// The reply arrived after the total round-trip latency.
    Reply {
        /// The reply message.
        message: Message,
        /// Round-trip time including serialization.
        rtt: SimDuration,
    },
    /// Either direction lost the message; the caller times out.
    Lost,
}

/// A connectionless request/response channel to one device type's network.
///
/// # Example
///
/// ```
/// use aorta_net::{Channel, Message};
/// use aorta_sim::{LinkModel, SimRng};
///
/// let channel = Channel::new(LinkModel::ideal());
/// let mut rng = SimRng::seed(1);
/// let sent = channel.send(&Message::Probe, &mut rng);
/// assert!(sent.is_some());
/// ```
#[derive(Debug, Clone)]
pub struct Channel {
    link: LinkModel,
}

impl Channel {
    /// Creates a channel over the given link.
    pub fn new(link: LinkModel) -> Self {
        Channel { link }
    }

    /// The underlying link model.
    pub fn link(&self) -> &LinkModel {
        &self.link
    }

    /// Sends one message; returns the one-way latency, or `None` on loss.
    pub fn send(&self, message: &Message, rng: &mut SimRng) -> Option<SimDuration> {
        self.link.transmit(message.wire_len(), rng).latency()
    }

    /// Performs a request/response exchange, computing the reply with
    /// `respond` (the device endpoint).
    pub fn exchange(
        &self,
        request: &Message,
        rng: &mut SimRng,
        respond: impl FnOnce() -> Message,
    ) -> Exchange {
        let out = match self.send(request, rng) {
            Some(d) => d,
            None => return Exchange::Lost,
        };
        let reply = respond();
        match self.send(&reply, rng) {
            Some(back) => Exchange::Reply {
                message: reply,
                rtt: out + back,
            },
            None => Exchange::Lost,
        }
    }

    /// A request/response exchange priced by its wire lengths alone, for a
    /// caller that has the reply's content in hand already: the request
    /// crosses first, then the reply, drawing from `rng` exactly as
    /// [`Channel::exchange`] does for messages of these lengths.
    ///
    /// Returns the round-trip time, or `None` when either direction is lost.
    pub fn exchange_len(
        &self,
        request_len: usize,
        reply_len: usize,
        rng: &mut SimRng,
    ) -> Option<SimDuration> {
        self.link.round_trip(request_len, reply_len, rng)
    }

    /// Connect handshake: `Connect` out, `ConnectAck` back.
    ///
    /// Returns the handshake RTT, or `None` on loss.
    pub fn connect(&self, rng: &mut SimRng) -> Option<SimDuration> {
        match self.exchange(&Message::Connect, rng, || Message::ConnectAck) {
            Exchange::Reply { rtt, .. } => Some(rtt),
            Exchange::Lost => None,
        }
    }

    /// Close notification (fire and forget, as in the paper's `close()`).
    pub fn close(&self, rng: &mut SimRng) {
        let _ = self.send(&Message::Close, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aorta_sim::SimDuration;

    #[test]
    fn exchange_over_ideal_link() {
        let ch = Channel::new(LinkModel::ideal());
        let mut rng = SimRng::seed(1);
        let ex = ch.exchange(&Message::Probe, &mut rng, || Message::ProbeReply {
            fields: vec![1.0],
        });
        match ex {
            Exchange::Reply { message, rtt } => {
                assert_eq!(message, Message::ProbeReply { fields: vec![1.0] });
                assert_eq!(rtt, SimDuration::ZERO);
            }
            Exchange::Lost => panic!("ideal link lost a message"),
        }
    }

    #[test]
    fn lossy_link_loses_exchanges() {
        let ch = Channel::new(LinkModel::new(SimDuration::ZERO, SimDuration::ZERO, 1.0));
        let mut rng = SimRng::seed(2);
        assert_eq!(
            ch.exchange(&Message::Probe, &mut rng, || Message::ConnectAck),
            Exchange::Lost
        );
        assert!(ch.connect(&mut rng).is_none());
    }

    #[test]
    fn rtt_includes_serialization_both_ways() {
        let ch = Channel::new(LinkModel::ideal().with_bytes_per_sec(1_000));
        let mut rng = SimRng::seed(3);
        // Connect = 1 byte out, ConnectAck = 1 byte back → 2ms at 1kB/s.
        let rtt = ch.connect(&mut rng).unwrap();
        assert_eq!(rtt, SimDuration::from_millis(2));
    }

    #[test]
    fn connect_round_trips() {
        let link = LinkModel::new(SimDuration::from_millis(5), SimDuration::ZERO, 0.0);
        let ch = Channel::new(link);
        let mut rng = SimRng::seed(4);
        assert_eq!(ch.connect(&mut rng), Some(SimDuration::from_millis(10)));
        ch.close(&mut rng); // must not panic
    }
}
