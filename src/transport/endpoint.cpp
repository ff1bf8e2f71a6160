// Endpoint base-class plumbing shared by all transports: Lookup over
// LookupEx, the one-set pull-and-apply helper over UpdateBatch, and the
// trivial bodies of the retired per-set entry points.
#include "transport/transport.hpp"

namespace ldmsxx {
namespace {

Status Retired() { return {ErrorCode::kUnsupported, "per-set update retired"}; }

}  // namespace

Status ServiceHandler::HandleUpdate(const std::string&,
                                    std::vector<std::byte>*) {
  return Retired();
}

Status Endpoint::Lookup(const std::string& instance,
                        std::vector<std::byte>* metadata) {
  return LookupEx(instance, metadata, nullptr);
}

Status Endpoint::Update(const std::string& instance, std::uint32_t handle,
                        MetricSet& mirror) {
  std::vector<BatchUpdateResult> results;
  UpdateBatch({{instance, handle, mirror.data_gn()}}, &results);
  BatchUpdateResult& r = results[0];
  if (!r.status.ok() || r.unchanged) return r.status;
  return r.delta ? mirror.ApplyDelta(r.data) : mirror.ApplyData(r.data);
}

Status Endpoint::RemoteQuery(const QueryRequest& req, QueryResponse* resp) {
  (void)req;
  *resp = QueryResponse{};
  resp->code = static_cast<std::uint8_t>(ErrorCode::kUnsupported);
  resp->error = "transport does not carry query frames";
  return {ErrorCode::kUnsupported, "transport does not carry query frames"};
}

Status Endpoint::UpdateRaw(const std::string&, std::vector<std::byte>*) {
  return Retired();
}

void Endpoint::LookupAsync(const std::string& instance, AsyncHandler handler) {
  std::vector<std::byte> metadata;
  Status st = Lookup(instance, &metadata);
  handler(std::move(st), std::move(metadata));
}

void Endpoint::UpdateAsync(const std::string&, AsyncHandler handler) {
  handler(Retired(), {});
}

}  // namespace ldmsxx
