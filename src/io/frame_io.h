// Length-prefixed frames for the streaming serve protocol.
//
// march_serve's batch mode is line-oriented: one NDJSON request per line,
// one result line per request, everything buffered until EOF. The
// streaming mode (--stream / --listen) needs real message boundaries —
// a client must be able to write a request, block on exactly one
// response, and interleave binary plan payloads that may themselves
// contain newlines. Frames provide that:
//
//   offset  size  field
//   0       4     u32 payload length, little-endian (excludes this
//                 header; at most kMaxFramePayload)
//   4       1     u8 frame type (FrameType)
//   5       len   payload bytes
//
// Frame types:
//   kRequest (1)       JSON request object (io/job_io.h schema), UTF-8
//   kResponse (2)      JSON result line (result_to_json)
//   kResponsePlan (3)  a result plus its plan in binary: u32 json length,
//                      the JSON result bytes (without "plan"), then the
//                      io/plan_codec document to the end of the payload
//   kError (4)         protocol-level error text; the stream ends after
//
// read_frame() is defensive the same way decode_plan() is: a hostile or
// truncated stream produces a typed kError status, never a crash or an
// unbounded allocation (the length word is validated against
// kMaxFramePayload, and the payload buffer grows only as its bytes
// arrive).
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>

namespace anr {

enum class FrameType : std::uint8_t {
  kRequest = 1,
  kResponse = 2,
  kResponsePlan = 3,
  kError = 4,
};

/// Stable lowercase name ("request", "response", ...).
const char* frame_type_name(FrameType type);

/// Refuse frames beyond this payload size (corrupt or hostile length
/// words would otherwise drive a multi-gigabyte allocation).
inline constexpr std::size_t kMaxFramePayload = 256u << 20;  // 256 MiB

struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

/// One read_frame() outcome.
enum class FrameReadStatus {
  kFrame,  ///< a complete frame was read
  kEof,    ///< clean end of stream (EOF exactly on a frame boundary)
  kError,  ///< malformed: truncated mid-frame, oversized, unknown type
};

/// Appends one encoded frame to `out`.
void append_frame(std::string* out, FrameType type, std::string_view payload);
std::string encode_frame(FrameType type, std::string_view payload);

/// Writes one frame; returns false when the stream failed.
bool write_frame(std::ostream& out, FrameType type, std::string_view payload);

/// Reads the next frame. kError sets `error` (when non-null) with the
/// reason; the stream position is then unspecified and the caller should
/// stop reading.
FrameReadStatus read_frame(std::istream& in, Frame* frame,
                           std::string* error = nullptr);

/// Builds / splits the kResponsePlan payload (u32 JSON length + JSON +
/// binary plan document). split returns false on malformed payloads.
std::string make_response_plan_payload(std::string_view result_json,
                                       std::string_view plan_bytes);
bool split_response_plan_payload(std::string_view payload,
                                 std::string_view* result_json,
                                 std::string_view* plan_bytes,
                                 std::string* error = nullptr);

}  // namespace anr
