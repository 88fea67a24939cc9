#include "rpc/protocol.hpp"

#include <cstring>

#include "data/quant.hpp"

namespace parhuff::rpc {

namespace {

template <typename T>
void put_le(u8* dst, T v) {
  std::memcpy(dst, &v, sizeof(T));
}

template <typename T>
[[nodiscard]] T get_le(const u8* src) {
  T v;
  std::memcpy(&v, src, sizeof(T));
  return v;
}

}  // namespace

const char* status_name(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kBadRequest: return "bad_request";
    case Status::kUnsupportedVersion: return "unsupported_version";
    case Status::kQueueFull: return "queue_full";
    case Status::kDeadlineExceeded: return "deadline_exceeded";
    case Status::kCancelled: return "cancelled";
    case Status::kShuttingDown: return "shutting_down";
    case Status::kInternal: return "internal";
  }
  return "unknown";
}

std::array<u8, kHeaderBytes> encode_header(const Header& h) {
  std::array<u8, kHeaderBytes> b{};
  put_le<u32>(b.data() + 0, kMagic);
  b[4] = kVersion;
  b[5] = static_cast<u8>(h.kind);
  b[6] = static_cast<u8>(h.op);
  b[7] = h.sym_width;
  put_le<u64>(b.data() + 8, h.request_id);
  b[16] = h.priority;
  b[17] = static_cast<u8>(h.status);
  put_le<u16>(b.data() + 18, 0);  // reserved
  put_le<u32>(b.data() + 20, h.payload_len);
  // Stream Chunk/End frames carry the stream id where every other op
  // carries the relative deadline (anchored once at Begin).
  put_le<u64>(b.data() + 24,
              is_stream_ref_op(h.op) ? h.stream_id : h.deadline_micros);
  return b;
}

std::vector<u8> encode_frame(const Frame& f, u32 max_payload) {
  if (f.payload.size() > max_payload) {
    throw std::length_error("rpc: frame payload exceeds the protocol bound");
  }
  Header h = f.h;
  h.payload_len = static_cast<u32>(f.payload.size());
  const std::array<u8, kHeaderBytes> hb = encode_header(h);
  std::vector<u8> out(kHeaderBytes + f.payload.size());
  std::memcpy(out.data(), hb.data(), kHeaderBytes);
  if (!f.payload.empty()) {
    std::memcpy(out.data() + kHeaderBytes, f.payload.data(),
                f.payload.size());
  }
  return out;
}

Header decode_header(std::span<const u8, kHeaderBytes> b, u32 max_payload) {
  // Magic first: a mismatch means the stream is not frame-aligned at all,
  // so no field (not even the request id) can be trusted for a response.
  if (get_le<u32>(b.data() + 0) != kMagic) {
    throw ProtocolError("bad magic", Status::kBadRequest,
                        /*can_respond=*/false, 0);
  }
  Header h;
  h.request_id = get_le<u64>(b.data() + 8);
  const u8 version = b[4];
  if (version != kVersion) {
    throw ProtocolError("unsupported version " + std::to_string(version),
                        Status::kUnsupportedVersion, /*can_respond=*/true,
                        h.request_id);
  }
  const u8 kind = b[5];
  if (kind > static_cast<u8>(Kind::kResponse)) {
    throw ProtocolError("bad kind " + std::to_string(kind),
                        Status::kBadRequest, /*can_respond=*/true,
                        h.request_id);
  }
  h.kind = static_cast<Kind>(kind);
  const u8 op = b[6];
  if (op < static_cast<u8>(Op::kCompress) ||
      op > static_cast<u8>(Op::kLossyDecompress)) {
    throw ProtocolError("bad op " + std::to_string(op), Status::kBadRequest,
                        /*can_respond=*/true, h.request_id);
  }
  h.op = static_cast<Op>(op);
  h.sym_width = b[7];
  h.priority = b[16];
  const u8 status = b[17];
  if (status > static_cast<u8>(Status::kInternal)) {
    throw ProtocolError("bad status " + std::to_string(status),
                        Status::kBadRequest, /*can_respond=*/true,
                        h.request_id);
  }
  h.status = static_cast<Status>(status);
  h.payload_len = get_le<u32>(b.data() + 20);
  if (h.payload_len > max_payload) {
    throw ProtocolError(
        "payload length " + std::to_string(h.payload_len) +
            " exceeds the bound " + std::to_string(max_payload),
        Status::kBadRequest, /*can_respond=*/true, h.request_id);
  }
  const u64 slot24 = get_le<u64>(b.data() + 24);
  if (is_stream_ref_op(h.op)) {
    h.stream_id = slot24;
  } else {
    h.deadline_micros = slot24;
  }
  return h;
}

std::vector<u8> encode_stream_end_request(const StreamEndRequest& req) {
  std::vector<u8> b(kStreamEndRequestBytes, 0);
  put_le<u64>(b.data() + 0, req.total_bytes);
  put_le<u64>(b.data() + 8, req.checksum);
  return b;
}

StreamEndRequest decode_stream_end_request(std::span<const u8> payload) {
  if (payload.size() < kStreamEndRequestBytes) {
    throw ProtocolError("stream end payload too short (" +
                            std::to_string(payload.size()) + " bytes)",
                        Status::kBadRequest, /*can_respond=*/false, 0);
  }
  StreamEndRequest req;
  req.total_bytes = get_le<u64>(payload.data() + 0);
  req.checksum = get_le<u64>(payload.data() + 8);
  return req;
}

std::vector<u8> encode_stream_summary(const StreamSummary& s) {
  std::vector<u8> b(kStreamSummaryBytes, 0);
  put_le<u64>(b.data() + 0, s.bytes_in);
  put_le<u64>(b.data() + 8, s.bytes_out);
  put_le<u64>(b.data() + 16, s.checksum);
  return b;
}

StreamSummary decode_stream_summary(std::span<const u8> payload) {
  if (payload.size() < kStreamSummaryBytes) {
    throw ProtocolError("stream summary payload too short (" +
                            std::to_string(payload.size()) + " bytes)",
                        Status::kBadRequest, /*can_respond=*/false, 0);
  }
  StreamSummary s;
  s.bytes_in = get_le<u64>(payload.data() + 0);
  s.bytes_out = get_le<u64>(payload.data() + 8);
  s.checksum = get_le<u64>(payload.data() + 16);
  return s;
}

std::vector<u8> encode_lossy_request_header(const LossyRequestHeader& h) {
  std::vector<u8> b(kLossyRequestHeaderBytes, 0);
  put_le<u64>(b.data() + 0, h.nx);
  put_le<u64>(b.data() + 8, h.ny);
  put_le<u64>(b.data() + 16, h.nz);
  put_le<double>(b.data() + 24, h.rel_error_bound);
  put_le<double>(b.data() + 32, h.abs_error_bound);
  put_le<u32>(b.data() + 40, h.nbins);
  put_le<u32>(b.data() + 44, h.rle_min_run);
  return b;
}

LossyRequestHeader decode_lossy_request_header(std::span<const u8> payload) {
  if (payload.size() < kLossyRequestHeaderBytes) {
    throw ProtocolError("lossy request payload too short (" +
                            std::to_string(payload.size()) + " bytes)",
                        Status::kBadRequest, /*can_respond=*/false, 0);
  }
  LossyRequestHeader h;
  h.nx = get_le<u64>(payload.data() + 0);
  h.ny = get_le<u64>(payload.data() + 8);
  h.nz = get_le<u64>(payload.data() + 16);
  h.rel_error_bound = get_le<double>(payload.data() + 24);
  h.abs_error_bound = get_le<double>(payload.data() + 32);
  h.nbins = get_le<u32>(payload.data() + 40);
  h.rle_min_run = get_le<u32>(payload.data() + 44);
  return h;
}

std::vector<u8> encode_lossy_field_header(const LossyFieldHeader& h) {
  std::vector<u8> b(kLossyFieldHeaderBytes, 0);
  put_le<u64>(b.data() + 0, h.nx);
  put_le<u64>(b.data() + 8, h.ny);
  put_le<u64>(b.data() + 16, h.nz);
  put_le<double>(b.data() + 24, h.error_bound);
  return b;
}

LossyFieldHeader decode_lossy_field_header(std::span<const u8> payload) {
  if (payload.size() < kLossyFieldHeaderBytes) {
    throw ProtocolError("lossy field payload too short (" +
                            std::to_string(payload.size()) + " bytes)",
                        Status::kBadRequest, /*can_respond=*/false, 0);
  }
  LossyFieldHeader h;
  h.nx = get_le<u64>(payload.data() + 0);
  h.ny = get_le<u64>(payload.data() + 8);
  h.nz = get_le<u64>(payload.data() + 16);
  h.error_bound = get_le<double>(payload.data() + 24);
  return h;
}

std::pair<LossyFieldHeader, std::vector<float>> decode_lossy_field_payload(
    std::span<const u8> payload) {
  const LossyFieldHeader h = decode_lossy_field_header(payload);
  const std::span<const u8> body = payload.subspan(kLossyFieldHeaderBytes);
  const std::size_t n = body.size() / sizeof(float);
  const auto total = data::checked_total(data::Dims{h.nx, h.ny, h.nz}, n);
  if (body.size() % sizeof(float) != 0 || total != n) {
    throw ProtocolError("lossy field payload dims mismatch",
                        Status::kBadRequest, /*can_respond=*/false, 0);
  }
  std::vector<float> values(static_cast<std::size_t>(n));
  std::memcpy(values.data(), body.data(), body.size());
  return {h, std::move(values)};
}

std::vector<u8> encode_health_info(const HealthInfo& info) {
  std::vector<u8> b(kHealthInfoBytes, 0);
  put_le<u32>(b.data() + 0, info.info_version);
  b[4] = info.accepting ? 1 : 0;
  put_le<u64>(b.data() + 8, info.queue_depth);
  put_le<u64>(b.data() + 16, info.queue_capacity);
  put_le<u64>(b.data() + 24, info.connections);
  put_le<u64>(b.data() + 32, info.max_connections);
  return b;
}

HealthInfo decode_health_info(std::span<const u8> payload) {
  if (payload.size() < kHealthInfoBytes) {
    throw ProtocolError("health payload too short (" +
                            std::to_string(payload.size()) + " bytes)",
                        Status::kBadRequest, /*can_respond=*/false, 0);
  }
  HealthInfo info;
  info.info_version = get_le<u32>(payload.data() + 0);
  if (info.info_version == 0) {
    throw ProtocolError("health payload unversioned", Status::kBadRequest,
                        /*can_respond=*/false, 0);
  }
  info.accepting = payload[4] != 0;
  info.queue_depth = get_le<u64>(payload.data() + 8);
  info.queue_capacity = get_le<u64>(payload.data() + 16);
  info.connections = get_le<u64>(payload.data() + 24);
  info.max_connections = get_le<u64>(payload.data() + 32);
  return info;
}

}  // namespace parhuff::rpc
