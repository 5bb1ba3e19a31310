// Contact cards: how view entries describe a reachable node.
//
// In a NAT-constrained network (Nylon, §II-C) knowing a node's id is not
// enough to reach it: N-nodes are only reachable through their relay (or a
// punched hole). A ContactCard bundles identity with reachability.
#pragma once

#include <optional>

#include "common/ids.hpp"
#include "common/serialize.hpp"

namespace whisper::pss {

struct ContactCard {
  NodeId id;
  /// Where to send datagrams: the node's own public endpoint (P-node) or
  /// the public endpoint of its relay (N-node).
  Endpoint addr;
  bool is_public = false;
  /// Relay node id (nil for P-nodes).
  NodeId relay_id;

  bool operator==(const ContactCard& o) const {
    return id == o.id && addr == o.addr && is_public == o.is_public && relay_id == o.relay_id;
  }

  void serialize(Writer& w) const {
    w.node_id(id);
    w.endpoint(addr);
    w.boolean(is_public);
    w.node_id(relay_id);
  }

  static ContactCard deserialize(Reader& r) {
    ContactCard c;
    c.id = r.node_id();
    c.addr = r.endpoint();
    c.is_public = r.boolean();
    c.relay_id = r.node_id();
    return c;
  }
};

}  // namespace whisper::pss
