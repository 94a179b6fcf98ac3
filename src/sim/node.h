// Host interface: what a simulated node's software stack must implement.
//
// The network delivers three kinds of upcalls, mirroring what the TOTA
// prototype gets from its OS/network layer: received datagrams (multicast
// frames from one-hop neighbours), and neighbour appearance/disappearance
// from the low-level "system to continuously detect neighboring nodes"
// the paper describes.
#pragma once

#include <memory>

#include "common/ids.h"
#include "wire/buffer.h"

namespace tota::sim {

class Host {
 public:
  virtual ~Host() = default;

  /// A one-hop broadcast frame from `from` arrived.  One transmission
  /// reaches many receivers as the *same* wire::Bytes object, so stacks
  /// that cache decoded frames by buffer identity (wire::FrameCodec)
  /// decode once per transmission instead of once per receiver.
  virtual void on_datagram(NodeId from,
                           std::shared_ptr<const wire::Bytes> payload) = 0;

  /// `neighbor` entered radio range (or joined the network).
  virtual void on_neighbor_up(NodeId neighbor) = 0;

  /// `neighbor` left radio range (moved away, left, or failed).
  virtual void on_neighbor_down(NodeId neighbor) = 0;
};

}  // namespace tota::sim
