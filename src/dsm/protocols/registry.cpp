#include "dsm/protocols/registry.h"

#include "dsm/protocols/anbkh.h"
#include "dsm/protocols/buffering.h"
#include "dsm/protocols/optp.h"
#include "dsm/protocols/sharded.h"
#include "dsm/protocols/token.h"

namespace dsm {

const char* to_string(ProtocolKind k) noexcept {
  switch (k) {
    case ProtocolKind::kOptP: return "optp";
    case ProtocolKind::kOptPWs: return "optp-ws";
    case ProtocolKind::kAnbkh: return "anbkh";
    case ProtocolKind::kAnbkhWs: return "anbkh-ws";
    case ProtocolKind::kTokenWs: return "token-ws";
    case ProtocolKind::kOptPSharded: return "optp-sharded";
    case ProtocolKind::kOptPConv: return "optp-conv";
  }
  return "?";
}

std::optional<ProtocolKind> parse_protocol(std::string_view name) {
  for (const auto kind : all_protocol_kinds()) {
    if (name == to_string(kind)) return kind;
  }
  if (name == to_string(ProtocolKind::kOptPConv)) {
    return ProtocolKind::kOptPConv;
  }
  if (name == to_string(ProtocolKind::kOptPSharded)) {
    return ProtocolKind::kOptPSharded;
  }
  return std::nullopt;
}

const std::vector<ProtocolKind>& all_protocol_kinds() {
  static const std::vector<ProtocolKind> kinds = {
      ProtocolKind::kOptP, ProtocolKind::kAnbkh, ProtocolKind::kOptPWs,
      ProtocolKind::kAnbkhWs, ProtocolKind::kTokenWs};
  return kinds;
}

const std::vector<ProtocolKind>& class_p_protocol_kinds() {
  static const std::vector<ProtocolKind> kinds = {ProtocolKind::kOptP,
                                                  ProtocolKind::kAnbkh};
  return kinds;
}

namespace {

std::unique_ptr<CausalProtocol> apply_drain_mode(
    std::unique_ptr<CausalProtocol> proto, const ProtocolConfig& config) {
  if (config.reference_drain) {
    if (auto* buffering = dynamic_cast<BufferingProtocol*>(proto.get())) {
      buffering->set_reference_drain(true);
    }
  }
  return proto;
}

std::unique_ptr<CausalProtocol> build_protocol(ProtocolKind kind,
                                               ProcessId self,
                                               std::size_t n_procs,
                                               std::size_t n_vars,
                                               Endpoint& endpoint,
                                               ProtocolObserver& observer,
                                               const ProtocolConfig& config) {
  switch (kind) {
    case ProtocolKind::kOptP:
      return std::make_unique<OptP>(self, n_procs, n_vars, endpoint, observer,
                                    /*writing_semantics=*/false,
                                    config.write_blob_size);
    case ProtocolKind::kOptPWs:
      return std::make_unique<OptP>(self, n_procs, n_vars, endpoint, observer,
                                    /*writing_semantics=*/true,
                                    config.write_blob_size);
    case ProtocolKind::kAnbkh:
      return std::make_unique<Anbkh>(self, n_procs, n_vars, endpoint, observer,
                                     /*writing_semantics=*/false);
    case ProtocolKind::kAnbkhWs:
      return std::make_unique<Anbkh>(self, n_procs, n_vars, endpoint, observer,
                                     /*writing_semantics=*/true);
    case ProtocolKind::kTokenWs:
      return std::make_unique<TokenWs>(self, n_procs, n_vars, endpoint,
                                       observer, config.token_max_rounds);
    case ProtocolKind::kOptPConv:
      return std::make_unique<OptP>(self, n_procs, n_vars, endpoint, observer,
                                    /*writing_semantics=*/false,
                                    config.write_blob_size,
                                    /*convergent=*/true);
    case ProtocolKind::kOptPSharded: {
      auto map = config.subscription;
      if (map == nullptr) {
        map = std::make_shared<const SubscriptionMap>(
            SubscriptionMap::full(n_procs, n_vars));
      }
      return std::make_unique<ShardedOptP>(self, n_procs, n_vars, endpoint,
                                           observer, std::move(map),
                                           config.write_blob_size);
    }
  }
  return nullptr;
}

}  // namespace

std::unique_ptr<CausalProtocol> make_protocol(ProtocolKind kind, ProcessId self,
                                              std::size_t n_procs,
                                              std::size_t n_vars,
                                              Endpoint& endpoint,
                                              ProtocolObserver& observer,
                                              const ProtocolConfig& config) {
  return apply_drain_mode(build_protocol(kind, self, n_procs, n_vars, endpoint,
                                         observer, config),
                          config);
}

}  // namespace dsm
