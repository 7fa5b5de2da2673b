// The message-passing half of the runtime seam.
//
// Transport is what the protocol engines see of "the network": attach a
// per-node receive handler, send typed envelopes.  The simulated Network
// (src/net) implements it over one Simulator with the paper's delay model
// and failure injection; RtTransport (src/rt) implements it as an
// in-process MPSC loopback between worker threads, applying the same
// LinkModel (net/link_model.h) as real timer waits.
//
// The payload travels as a MessageBody — a small-buffer type-erased box
// (env/message_body.h): transports are deliberately ignorant of protocol
// message contents; the ACP layer defines and downcasts its own message
// struct (src/acp/messages.h).  Unlike the std::any it replaced, the
// closed protocol vocabulary rides entirely in the envelope's inline
// buffer, so handing a message through a transport allocates nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "env/message_body.h"
#include "net/types.h"

namespace opc {

/// One in-flight message.  Move-only (the payload owns its content).
struct Envelope {
  NodeId from;
  NodeId to;
  std::string kind;        // short label for tracing ("UPDATE_REQ", ...)
  std::uint64_t txn = 0;   // transaction id for tracing, 0 if none
  std::uint64_t size_bytes = 256;
  MessageBody payload;     // protocol-defined content
};

/// Abstract node-to-node message fabric.  Delivery is at-most-once and
/// FIFO per directed (from, to) channel; a node with no attached handler
/// drops everything sent to it.  See docs/RUNTIME.md for what each
/// implementation additionally promises.
class Transport {
 public:
  using Handler = std::function<void(Envelope)>;

  virtual ~Transport() = default;

  /// Attaches the receive handler for a node; replaces any previous one.
  /// A node with no handler (never attached, or detached by a crash) drops
  /// everything sent to it.
  virtual void attach(NodeId node, Handler handler) = 0;

  /// Detaches a node (crash).  In-flight messages to it will be dropped at
  /// delivery time — they were "on the wire" when the node died.
  virtual void detach(NodeId node) = 0;

  [[nodiscard]] virtual bool attached(NodeId node) const = 0;

  /// Sends an envelope; delivery is scheduled after the link delay unless
  /// the message is dropped (partition, loss, dead receiver).
  virtual void send(Envelope env) = 0;

 protected:
  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;
};

}  // namespace opc
