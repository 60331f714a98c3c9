#include "io/frame_io.h"

#include <algorithm>
#include <cstring>

namespace anr {

namespace {

void put_u32(std::string* out, std::uint32_t v) {
  char b[4];
  b[0] = static_cast<char>(v & 0xff);
  b[1] = static_cast<char>((v >> 8) & 0xff);
  b[2] = static_cast<char>((v >> 16) & 0xff);
  b[3] = static_cast<char>((v >> 24) & 0xff);
  out->append(b, 4);
}

std::uint32_t get_u32(const char* p) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(p[2])) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(p[3])) << 24);
}

bool valid_type(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(FrameType::kRequest) &&
         t <= static_cast<std::uint8_t>(FrameType::kError);
}

void set_error(std::string* error, const char* what) {
  if (error != nullptr) *error = what;
}

}  // namespace

const char* frame_type_name(FrameType type) {
  switch (type) {
    case FrameType::kRequest:
      return "request";
    case FrameType::kResponse:
      return "response";
    case FrameType::kResponsePlan:
      return "response_plan";
    case FrameType::kError:
      return "error";
  }
  return "unknown";
}

void append_frame(std::string* out, FrameType type, std::string_view payload) {
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out->push_back(static_cast<char>(type));
  out->append(payload.data(), payload.size());
}

std::string encode_frame(FrameType type, std::string_view payload) {
  std::string out;
  out.reserve(5 + payload.size());
  append_frame(&out, type, payload);
  return out;
}

bool write_frame(std::ostream& out, FrameType type, std::string_view payload) {
  const std::string frame = encode_frame(type, payload);
  out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  return static_cast<bool>(out);
}

FrameReadStatus read_frame(std::istream& in, Frame* frame,
                           std::string* error) {
  set_error(error, "");
  char header[5];
  in.read(header, 1);
  if (in.gcount() == 0) return FrameReadStatus::kEof;  // clean boundary
  in.read(header + 1, 4);
  if (in.gcount() != 4) {
    set_error(error, "truncated frame header");
    return FrameReadStatus::kError;
  }
  const std::uint32_t len = get_u32(header);
  const std::uint8_t type = static_cast<std::uint8_t>(header[4]);
  if (len > kMaxFramePayload) {
    set_error(error, "frame payload exceeds kMaxFramePayload");
    return FrameReadStatus::kError;
  }
  if (!valid_type(type)) {
    set_error(error, "unknown frame type");
    return FrameReadStatus::kError;
  }
  frame->type = static_cast<FrameType>(type);
  // Grow the payload as its bytes arrive, a bounded chunk at a time: a
  // length word that promises more than the stream holds then costs at
  // most one chunk beyond the bytes received, not a buffer of its size.
  constexpr std::size_t kReadChunk = 64u << 10;
  frame->payload.clear();
  while (frame->payload.size() < len) {
    const std::size_t have = frame->payload.size();
    const std::size_t want = std::min<std::size_t>(len - have, kReadChunk);
    frame->payload.resize(have + want);
    in.read(frame->payload.data() + have, static_cast<std::streamsize>(want));
    if (static_cast<std::size_t>(in.gcount()) != want) {
      set_error(error, "truncated frame payload");
      return FrameReadStatus::kError;
    }
  }
  return FrameReadStatus::kFrame;
}

std::string make_response_plan_payload(std::string_view result_json,
                                       std::string_view plan_bytes) {
  std::string out;
  out.reserve(4 + result_json.size() + plan_bytes.size());
  put_u32(&out, static_cast<std::uint32_t>(result_json.size()));
  out.append(result_json.data(), result_json.size());
  out.append(plan_bytes.data(), plan_bytes.size());
  return out;
}

bool split_response_plan_payload(std::string_view payload,
                                 std::string_view* result_json,
                                 std::string_view* plan_bytes,
                                 std::string* error) {
  set_error(error, "");
  if (payload.size() < 4) {
    set_error(error, "response_plan payload shorter than its length word");
    return false;
  }
  const std::uint32_t json_len = get_u32(payload.data());
  if (json_len > payload.size() - 4) {
    set_error(error, "response_plan JSON length exceeds payload");
    return false;
  }
  *result_json = payload.substr(4, json_len);
  *plan_bytes = payload.substr(4 + json_len);
  return true;
}

}  // namespace anr
