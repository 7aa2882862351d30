#include "robust/crc32.h"

#include <algorithm>
#include <array>
#include <fstream>

namespace m2td::robust {

namespace {

/// Slicing-by-8 tables for the reflected IEEE polynomial: table[0] is the
/// classic bytewise table, table[k][b] advances table[k-1][b] by one more
/// zero byte, so eight input bytes fold into the CRC with eight lookups.
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

Crc32Tables BuildTables() {
  Crc32Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xffu];
    }
  }
  return tables;
}

/// Little-endian 32-bit load from any alignment (one mov on x86/arm64).
std::uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t size, std::uint32_t crc) {
  static const Crc32Tables t = BuildTables();
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t c = crc ^ 0xffffffffu;
  for (; size >= 8; size -= 8, bytes += 8) {
    const std::uint32_t lo = c ^ LoadLe32(bytes);
    const std::uint32_t hi = LoadLe32(bytes + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; size > 0; --size, ++bytes) {
    c = t[0][(c ^ *bytes) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

Result<std::uint32_t> Crc32OfFile(const std::string& path,
                                  std::uint64_t size) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "' for checksum");
  std::uint32_t crc = 0;
  char buffer[1 << 16];
  std::uint64_t remaining = size;
  while (remaining > 0 && in) {
    const std::streamsize want = static_cast<std::streamsize>(
        std::min<std::uint64_t>(remaining, sizeof(buffer)));
    in.read(buffer, want);
    const std::streamsize got = in.gcount();
    if (got <= 0) break;
    crc = Crc32(buffer, static_cast<std::size_t>(got), crc);
    remaining -= static_cast<std::uint64_t>(got);
  }
  if (size != ~0ULL && remaining != 0) {
    return Status::IOError("'" + path + "' shorter than checksummed range");
  }
  return crc;
}

}  // namespace m2td::robust
