#include "io/terrain_io.h"

#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>

#include "common/check.h"
#include "common/hash.h"

namespace anr {

namespace {

void set_error(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
}

std::string errno_message(const std::string& verb, const std::string& path) {
  return verb + " " + path + ": " +
         (errno != 0 ? std::strerror(errno) : "unknown I/O error");
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_f64(std::string& out, double d) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  put_u64(out, bits);
}

std::uint32_t get_u32(const std::string& in, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(in[at + i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t get_u64(const std::string& in, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(in[at + i]))
         << (8 * i);
  }
  return v;
}

double get_f64(const std::string& in, std::size_t at) {
  const std::uint64_t bits = get_u64(in, at);
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

constexpr char kToaMagic[8] = {'A', 'N', 'R', 'T', 'O', 'A', '0', '1'};

}  // namespace

json::Value cost_field_to_json(const CostField& field) {
  json::Object o;
  o["nx"] = field.nx();
  o["ny"] = field.ny();
  o["cell"] = field.cell_size();
  o["origin"] = json::Array{field.bounds().lo.x, field.bounds().lo.y};
  o["min_cost"] = field.min_cost();
  o["uniform"] = field.uniform();
  o["blocked_cells"] = field.blocked_count();
  json::Array costs;
  costs.reserve(field.costs().size());
  for (double c : field.costs()) {
    if (c == CostField::kInf) {
      costs.emplace_back("inf");
    } else {
      costs.emplace_back(c);
    }
  }
  o["costs"] = std::move(costs);
  return json::Value(std::move(o));
}

bool save_cost_field(const CostField& field, const std::string& path,
                     std::string* error) {
  set_error(error, "");
  errno = 0;
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    set_error(error, errno_message("cannot open for writing", path));
    return false;
  }
  out << cost_field_to_json(field).dump(2) << "\n";
  out.flush();
  if (!out) {
    set_error(error, errno_message("write failed for", path));
    return false;
  }
  return true;
}

bool save_toa(const CostField& field, const std::vector<double>& toa,
              const std::string& path, std::string* error) {
  set_error(error, "");
  ANR_CHECK_MSG(toa.size() == static_cast<std::size_t>(field.cell_count()),
                "ToA size does not match the cost field grid");
  std::string payload;
  payload.reserve(toa.size() * 8);
  for (double v : toa) put_f64(payload, v);

  std::string doc(kToaMagic, sizeof(kToaMagic));
  put_u32(doc, static_cast<std::uint32_t>(field.nx()));
  put_u32(doc, static_cast<std::uint32_t>(field.ny()));
  put_f64(doc, field.cell_size());
  doc += payload;
  put_u64(doc, fnv1a64(payload));

  errno = 0;
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    set_error(error, errno_message("cannot open for writing", path));
    return false;
  }
  out.write(doc.data(), static_cast<std::streamsize>(doc.size()));
  out.flush();
  if (!out) {
    set_error(error, errno_message("write failed for", path));
    return false;
  }
  return true;
}

std::optional<ToaSnapshot> load_toa(const std::string& path,
                                    std::string* error) {
  set_error(error, "");
  errno = 0;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    set_error(error, errno_message("cannot open", path));
    return std::nullopt;
  }
  std::string doc((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    set_error(error, errno_message("read failed for", path));
    return std::nullopt;
  }
  constexpr std::size_t kHeader = sizeof(kToaMagic) + 4 + 4 + 8;
  if (doc.size() < kHeader + 8 ||
      std::memcmp(doc.data(), kToaMagic, sizeof(kToaMagic)) != 0) {
    set_error(error, path + ": not an ANRTOA01 record");
    return std::nullopt;
  }
  ToaSnapshot snap;
  snap.nx = static_cast<int>(get_u32(doc, sizeof(kToaMagic)));
  snap.ny = static_cast<int>(get_u32(doc, sizeof(kToaMagic) + 4));
  snap.cell = get_f64(doc, sizeof(kToaMagic) + 8);
  if (snap.nx <= 0 || snap.ny <= 0) {
    set_error(error, path + ": invalid grid shape");
    return std::nullopt;
  }
  // The checksum covers the payload only, so the header fields are
  // validated on their own.
  if (!std::isfinite(snap.cell) || snap.cell <= 0.0) {
    set_error(error, path + ": invalid cell size");
    return std::nullopt;
  }
  const std::size_t cells =
      static_cast<std::size_t>(snap.nx) * static_cast<std::size_t>(snap.ny);
  // Divides instead of multiplying so a huge shape cannot wrap around.
  if ((doc.size() - kHeader - 8) % 8 != 0 ||
      (doc.size() - kHeader - 8) / 8 != cells) {
    set_error(error, path + ": truncated ToA payload");
    return std::nullopt;
  }
  const std::string payload = doc.substr(kHeader, cells * 8);
  const std::uint64_t want = get_u64(doc, kHeader + cells * 8);
  if (fnv1a64(payload) != want) {
    set_error(error, path + ": ToA checksum mismatch");
    return std::nullopt;
  }
  snap.toa.reserve(cells);
  for (std::size_t i = 0; i < cells; ++i) {
    snap.toa.push_back(get_f64(payload, i * 8));
  }
  return snap;
}

}  // namespace anr
