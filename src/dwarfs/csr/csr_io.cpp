#include "dwarfs/csr/csr_io.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>

namespace eod::dwarfs {

namespace {

constexpr char kMagic[8] = {'E', 'O', 'D', 'C', 'S', 'R', '0', '1'};

template <typename T>
void write_array(std::ofstream& out, const HostVector<T>& v) {
  const std::uint64_t count = v.size();
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(count * sizeof(T)));
}

template <typename T>
HostVector<T> read_array(std::ifstream& in, const std::string& what) {
  std::uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in) throw std::runtime_error("truncated .csr header for " + what);
  if (count > (1ull << 32)) {
    throw std::runtime_error("implausible .csr array size for " + what);
  }
  HostVector<T> v(count);
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(count * sizeof(T)));
  if (!in) throw std::runtime_error("truncated .csr data for " + what);
  return v;
}

}  // namespace

void save_csr(const CsrMatrix& m, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + path);
  out.write(kMagic, sizeof(kMagic));
  const std::uint64_t n = m.n;
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  write_array(out, m.row_ptr);
  write_array(out, m.cols);
  write_array(out, m.vals);
  if (!out) throw std::runtime_error("write failed: " + path);
}

CsrMatrix load_csr(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  char magic[8] = {};
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("not a .csr file: " + path);
  }
  CsrMatrix m;
  std::uint64_t n = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  if (!in) throw std::runtime_error("truncated .csr: " + path);
  m.n = n;
  m.row_ptr = read_array<std::uint32_t>(in, "row_ptr");
  m.cols = read_array<std::uint32_t>(in, "cols");
  m.vals = read_array<float>(in, "vals");

  // Structural validation: the loader must reject corrupted matrices
  // rather than hand the kernel out-of-bounds indices.
  if (m.row_ptr.size() != m.n + 1 || m.row_ptr.front() != 0 ||
      m.row_ptr.back() != m.cols.size() ||
      m.cols.size() != m.vals.size()) {
    throw std::runtime_error("inconsistent .csr structure: " + path);
  }
  for (std::size_t r = 0; r < m.n; ++r) {
    if (m.row_ptr[r] > m.row_ptr[r + 1]) {
      throw std::runtime_error("non-monotone row_ptr in " + path);
    }
  }
  for (const std::uint32_t c : m.cols) {
    if (c >= m.n) throw std::runtime_error("column out of range in " + path);
  }
  return m;
}

}  // namespace eod::dwarfs
