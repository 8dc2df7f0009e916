#include "app/kv_state_machine.hpp"

#include "common/serial.hpp"

namespace dl::app {

namespace {
// Distinguishes KV commands from other ledger payloads.
constexpr std::uint16_t kMagic = 0x4B56;  // "KV"
}  // namespace

Bytes Command::encode() const {
  Writer w;
  w.u16(kMagic);
  w.u8(static_cast<std::uint8_t>(kind));
  w.bytes(bytes_of(key));
  w.bytes(bytes_of(value));
  w.bytes(bytes_of(expected));
  return std::move(w).take();
}

std::optional<Command> Command::decode(ByteView in) {
  Reader r(in);
  if (r.u16() != kMagic) return std::nullopt;
  Command c;
  const std::uint8_t k = r.u8();
  if (k < 1 || k > 3) return std::nullopt;
  c.kind = static_cast<CommandKind>(k);
  c.key = to_string(r.bytes());
  c.value = to_string(r.bytes());
  c.expected = to_string(r.bytes());
  if (!r.done() || c.key.empty()) return std::nullopt;
  return c;
}

bool KvStateMachine::apply(const Command& cmd) {
  ++applied_;
  switch (cmd.kind) {
    case CommandKind::Put:
      kv_[cmd.key] = cmd.value;
      return true;
    case CommandKind::Del:
      if (kv_.erase(cmd.key) == 0) {
        ++rejected_;
        return false;
      }
      return true;
    case CommandKind::Cas: {
      auto it = kv_.find(cmd.key);
      if (it == kv_.end() || it->second != cmd.expected) {
        ++rejected_;
        return false;
      }
      it->second = cmd.value;
      return true;
    }
  }
  ++rejected_;
  return false;
}

std::optional<std::string> KvStateMachine::get(const std::string& key) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return std::nullopt;
  return it->second;
}

Hash KvStateMachine::digest() const {
  Sha256 h;
  Writer w;
  w.u64(applied_);
  w.u64(rejected_);
  h.update(w.data());
  for (const auto& [k, v] : kv_) {
    Writer e;
    e.bytes(bytes_of(k));
    e.bytes(bytes_of(v));
    h.update(e.data());
  }
  return h.finalize();
}

ReplicatedKv::ReplicatedKv(core::DlNode& node) : node_(node) {
  node_.set_delivery_callback([this](std::uint64_t, core::BlockKey,
                                     const core::BlockView& block, double) {
    for (const auto& tx : block.txs) {
      if (auto cmd = Command::decode(tx.payload)) sm_.apply(*cmd);
    }
  });
}

void ReplicatedKv::submit(const Command& cmd) { node_.submit(cmd.encode()); }

}  // namespace dl::app
