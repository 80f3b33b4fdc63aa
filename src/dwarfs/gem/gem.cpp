#include "dwarfs/gem/gem.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "xcl/kernel.hpp"
#include "xcl/simd.hpp"
#include "xcl/thread_pool.hpp"

namespace eod::dwarfs {

namespace {

/// A molecule of `atoms` untouched (zero) atoms.
Molecule shaped_molecule(std::size_t atoms) {
  Molecule m;
  for (HostVector<float>* v : {&m.x, &m.y, &m.z, &m.q, &m.r}) {
    *v = HostVector<float>(atoms);
  }
  return m;
}

/// Draws every atom of a shaped molecule in place.
void fill_molecule(Molecule& m, std::uint64_t seed) {
  const std::size_t atoms = m.atoms();
  // Pack atoms at protein-like density: ~0.01 atoms / A^3 inside a ball.
  const double radius =
      std::cbrt(static_cast<double>(atoms) / 0.01 * 3.0 / (4.0 * M_PI));
  // Five draws per atom: three for the position, charge, radius.
  generate_indexed(atoms, seed, 5, [&](SplitMix64& rng, std::size_t i) {
    // Rejection-free ball sample: direction x cube-root radial.
    const double u = 2.0 * rng.uniform() - 1.0;
    const double phi = 2.0 * M_PI * rng.uniform();
    const double rr = radius * std::cbrt(static_cast<double>(rng.uniform()));
    const double s = std::sqrt(1.0 - u * u);
    m.x[i] = static_cast<float>(rr * s * std::cos(phi));
    m.y[i] = static_cast<float>(rr * s * std::sin(phi));
    m.z[i] = static_cast<float>(rr * u);
    // pqr-style partial charges in [-1, 1], zero-sum over pairs.
    const float charge = rng.uniform(0.1f, 1.0f);
    m.q[i] = (i % 2 == 0) ? charge : -charge;
    m.r[i] = rng.uniform(1.0f, 2.0f);  // van der Waals radius, Angstrom
  });
}

}  // namespace

Molecule generate_molecule(std::size_t atoms, std::uint64_t seed) {
  Molecule m = shaped_molecule(atoms);
  fill_molecule(m, seed);
  return m;
}

void save_pqr(const Molecule& m, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "REMARK generated by the Extended OpenDwarfs reproduction\n";
  char line[128];
  for (std::size_t i = 0; i < m.atoms(); ++i) {
    // PQR: like PDB ATOM records with occupancy/B replaced by charge and
    // radius (whitespace-separated variant, as pdb2pqr emits).
    std::snprintf(line, sizeof(line),
                  "ATOM  %5zu  C   MOL A%4zu    %8.3f%8.3f%8.3f %7.4f %6.4f\n",
                  i + 1, i / 8 + 1, static_cast<double>(m.x[i]),
                  static_cast<double>(m.y[i]), static_cast<double>(m.z[i]),
                  static_cast<double>(m.q[i]), static_cast<double>(m.r[i]));
    out << line;
  }
  out << "END\n";
  if (!out) throw std::runtime_error("write failed: " + path);
}

Molecule load_pqr(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  Molecule m;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("ATOM", 0) != 0 && line.rfind("HETATM", 0) != 0) {
      continue;
    }
    // Fixed PDB columns for coordinates, then charge and radius fields.
    if (line.size() < 54) {
      throw std::runtime_error("short ATOM record in " + path);
    }
    const float x = std::stof(line.substr(30, 8));
    const float y = std::stof(line.substr(38, 8));
    const float z = std::stof(line.substr(46, 8));
    std::istringstream tail(line.substr(54));
    float q = 0.0f;
    float r = 0.0f;
    if (!(tail >> q >> r)) {
      throw std::runtime_error("missing charge/radius in " + path);
    }
    m.x.push_back(x);
    m.y.push_back(y);
    m.z.push_back(z);
    m.q.push_back(q);
    m.r.push_back(r);
  }
  if (m.atoms() == 0) {
    throw std::runtime_error("no ATOM records in " + path);
  }
  return m;
}

std::size_t Gem::atoms_for(ProblemSize s) {
  // Chosen so footprint_bytes reproduces §4.4.4's reported device memory:
  // 31.3 KiB, 252 KiB, 7498 KiB, 10970.2 KiB at 48 bytes/atom.
  switch (s) {
    case ProblemSize::kTiny:
      return 668;
    case ProblemSize::kSmall:
      return 5376;
    case ProblemSize::kMedium:
      return 159957;
    case ProblemSize::kLarge:
      return 234031;
  }
  return 0;
}

const char* Gem::molecule_for(ProblemSize s) {
  switch (s) {
    case ProblemSize::kTiny:
      return "4TUT";
    case ProblemSize::kSmall:
      return "2D3V";
    case ProblemSize::kMedium:
      return "nucleosome";
    case ProblemSize::kLarge:
      return "1KX5";
  }
  return "";
}

void Gem::setup(ProblemSize size) { configure(atoms_for(size)); }

void Gem::configure_with_molecule(Molecule molecule) {
  require(molecule.atoms() > 0, xcl::Status::kInvalidValue,
          "gem needs a non-empty molecule");
  mol_ = std::move(molecule);
  size_vertices();
  place_surface_vertices();
  input_fill_.mark_filled();
}

void Gem::configure(std::size_t atoms) {
  require(atoms > 0, xcl::Status::kInvalidValue, "gem needs atoms > 0");
  mol_ = shaped_molecule(atoms);
  size_vertices();
  input_fill_.reset();
}

void Gem::fill_input() const {
  input_fill_.ensure([&] {
    fill_molecule(mol_, 0x67656dull);  // "gem"
    place_surface_vertices();
  });
}

void Gem::size_vertices() {
  const std::size_t v = 2 * mol_.atoms();
  vx_ = HostVector<float>(v);
  vy_ = HostVector<float>(v);
  vz_ = HostVector<float>(v);
  potential_ = HostVector<float>(v);
}

void Gem::place_surface_vertices() const {
  // msms substitute: surface points on the bounding sphere (2 per atom).
  const std::size_t a = mol_.atoms();
  const std::size_t v = vx_.size();
  // The bounding radius is a max, which no order changes: each pool task
  // takes the max over its run of atoms, then the runs' maxima combine.
  const std::size_t tasks = pool_tasks(a);
  std::vector<float> run_max(tasks, 0.0f);
  xcl::ThreadPool::global().parallel_for(tasks, [&](std::size_t t) {
    float m = 0.0f;
    for (std::size_t i = t * a / tasks; i < (t + 1) * a / tasks; ++i) {
      const float rr = std::sqrt(mol_.x[i] * mol_.x[i] +
                                 mol_.y[i] * mol_.y[i] +
                                 mol_.z[i] * mol_.z[i]) +
                       mol_.r[i];
      m = std::max(m, rr);
    }
    run_max[t] = m;
  });
  const float max_r = *std::max_element(run_max.begin(), run_max.end());
  generate_indexed(v, 0x67656d02ull, 2, [&](SplitMix64& rng, std::size_t i) {
    const double u = 2.0 * rng.uniform() - 1.0;
    const double phi = 2.0 * M_PI * rng.uniform();
    const double s = std::sqrt(1.0 - u * u);
    vx_[i] = static_cast<float>(max_r * s * std::cos(phi));
    vy_[i] = static_cast<float>(max_r * s * std::sin(phi));
    vz_[i] = static_cast<float>(max_r * u);
  });
}

void Gem::bind(xcl::Context& ctx, xcl::Queue& q) {
  queue_ = &q;
  const std::size_t a = mol_.atoms();
  const std::size_t v = vx_.size();
  atoms_buf_.emplace(ctx, a * 4 * sizeof(float));
  verts_buf_.emplace(ctx, v * 3 * sizeof(float));
  pot_buf_.emplace(ctx, v * sizeof(float));
  // The interleave writes buffer payload outside the queue, so it keeps
  // the queue's rule: a model-only queue runs no kernel that could read it
  // and moves no bytes (DESIGN.md §5, "Model-only measurements").
  if (!q.functional()) return;
  fill_input();
  float* xyzq = atoms_buf_->view<float>().data();
  float* xyz = verts_buf_->view<float>().data();
  constexpr std::size_t kChunk = 4096;  // atoms and vertices per pool task
  const std::size_t n = std::max(a, v);
  xcl::ThreadPool::global().parallel_for(
      (n + kChunk - 1) / kChunk, [&](std::size_t chunk) {
        const std::size_t lo = chunk * kChunk;
        for (std::size_t i = lo, end = std::min(a, lo + kChunk); i < end;
             ++i) {
          xyzq[4 * i] = mol_.x[i];
          xyzq[4 * i + 1] = mol_.y[i];
          xyzq[4 * i + 2] = mol_.z[i];
          xyzq[4 * i + 3] = mol_.q[i];
        }
        for (std::size_t i = lo, end = std::min(v, lo + kChunk); i < end;
             ++i) {
          xyz[3 * i] = vx_[i];
          xyz[3 * i + 1] = vy_[i];
          xyz[3 * i + 2] = vz_[i];
        }
      });
}

void Gem::run() {
  const std::size_t a = mol_.atoms();
  const std::size_t v = vx_.size();
  auto atoms = atoms_buf_->access<const float>("atoms");
  auto verts = verts_buf_->access<const float>("vertices");
  auto pot = pot_buf_->access<float>("potential");

  // Tiled write-back (DESIGN.md §12): the vertex range runs as kTiles
  // independent kernels (disjoint potential writes, read-only inputs), so
  // finish()'s per-tile read-backs only wait on their own tile and overlap
  // the remaining tiles' compute on an out-of-order queue.  Per-vertex
  // arithmetic is unchanged, so results match the single-kernel path.
  auto make_tile = [=](std::size_t base, std::size_t limit) {
    xcl::Kernel k("gem_potential", [=](xcl::WorkItem& it) {
      const std::size_t i = base + it.global_id(0);
      if (i >= limit) return;
      const float px = verts[3 * i];
      const float py = verts[3 * i + 1];
      const float pz = verts[3 * i + 2];
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < a; ++kk) {
        const float dx = px - atoms[4 * kk];
        const float dy = py - atoms[4 * kk + 1];
        const float dz = pz - atoms[4 * kk + 2];
        const float inv_r =
            1.0f / std::sqrt(dx * dx + dy * dy + dz * dz + 1e-6f);
        acc += atoms[4 * kk + 3] * inv_r;
      }
      pot[i] = acc;
    });

    // Span tier (DESIGN.md §9): W vertices per step against a broadcast
    // atom.  Every lane performs the scalar body's exact op sequence --
    // subtract, three squares summed left-to-right, +1e-6f, IEEE sqrt
    // (hardware sqrtps is correctly rounded, like std::sqrt), divide,
    // multiply-accumulate -- so each vertex's potential is bit-identical
    // to the item path.  The sub-W vertex tail runs the scalar loop.
    k.span([=](std::size_t lo, std::size_t hi) {
      namespace sv = xcl::simd;
      constexpr std::size_t W = sv::kLanes;
      const float* EOD_RESTRICT xyzq = atoms.data();
      const float* EOD_RESTRICT xyz = verts.data();
      float* EOD_RESTRICT out = pot.data();
      std::size_t i = base + lo;
      const std::size_t last = std::min(base + hi, limit);
      const sv::vfloat soft = sv::vbroadcast(1e-6f);
      const sv::vfloat one = sv::vbroadcast(1.0f);
      for (; i + W <= last; i += W) {
        sv::vfloat px, py, pz;
        for (std::size_t l = 0; l < W; ++l) {
          px[l] = xyz[3 * (i + l)];
          py[l] = xyz[3 * (i + l) + 1];
          pz[l] = xyz[3 * (i + l) + 2];
        }
        sv::vfloat acc = sv::vbroadcast(0.0f);
        for (std::size_t kk = 0; kk < a; ++kk) {
          const sv::vfloat dx = px - sv::vbroadcast(xyzq[4 * kk]);
          const sv::vfloat dy = py - sv::vbroadcast(xyzq[4 * kk + 1]);
          const sv::vfloat dz = pz - sv::vbroadcast(xyzq[4 * kk + 2]);
          const sv::vfloat inv_r =
              one / sv::vsqrt(dx * dx + dy * dy + dz * dz + soft);
          acc += sv::vbroadcast(xyzq[4 * kk + 3]) * inv_r;
        }
        for (std::size_t l = 0; l < W; ++l) out[i + l] = acc[l];
      }
      for (; i < last; ++i) {
        const float px = xyz[3 * i];
        const float py = xyz[3 * i + 1];
        const float pz = xyz[3 * i + 2];
        float acc = 0.0f;
        for (std::size_t kk = 0; kk < a; ++kk) {
          const float dx = px - xyzq[4 * kk];
          const float dy = py - xyzq[4 * kk + 1];
          const float dz = pz - xyzq[4 * kk + 2];
          const float inv_r =
              1.0f / std::sqrt(dx * dx + dy * dy + dz * dz + 1e-6f);
          acc += xyzq[4 * kk + 3] * inv_r;
        }
        out[i] = acc;
      }
    });
    return k;
  };

  constexpr std::size_t kTiles = 4;
  const std::size_t wg = 64;
  // A second run() without an intervening finish() rewrites the same
  // potential ranges: order the new tiles after the previous generation.
  std::vector<xcl::Event> prev;
  prev.reserve(tiles_.size());
  for (const Tile& t : tiles_) prev.push_back(t.kernel);
  const std::span<const xcl::Event> deps =
      prev.empty() ? xcl::kNoWait : std::span<const xcl::Event>(prev);
  tiles_.clear();
  for (std::size_t t = 0; t < kTiles; ++t) {
    const std::size_t lo = t * v / kTiles;
    const std::size_t hi = (t + 1) * v / kTiles;
    if (lo == hi) continue;
    const double tv = static_cast<double>(hi - lo);
    xcl::WorkloadProfile prof;
    prof.flops = tv * a * 12.0;
    prof.int_ops = tv * a;
    // Atoms stream once per vertex but are served from cache; requested
    // traffic is what the bandwidth term sees.
    prof.bytes_read = tv * a * 4 * sizeof(float) * 0.05 +
                      tv * 3 * sizeof(float);
    prof.bytes_written = tv * sizeof(float);
    // Whole-run working set: the four tiles share the cache within one
    // pass (and the atom block dominates it anyway).
    prof.working_set_bytes =
        static_cast<double>(a * 4 + v * 4) * sizeof(float);
    prof.pattern = xcl::AccessPattern::kStreaming;
    const xcl::Event e = queue_->enqueue(
        make_tile(lo, hi), xcl::NDRange((hi - lo + wg - 1) / wg * wg, wg),
        prof, deps);  // tiles are independent of each other
    tiles_.push_back({lo, hi, e});
  }
}

void Gem::finish() {
  if (tiles_.empty()) {  // finish() without run(): plain blocking read
    // lint: no-deps(blocking read; nothing was enqueued on this path)
    queue_->enqueue_read<float>(*pot_buf_, std::span(potential_));
    return;
  }
  std::vector<xcl::Event> reads;
  reads.reserve(tiles_.size());
  for (const Tile& t : tiles_) {
    const xcl::Event dep[] = {t.kernel};
    reads.push_back(queue_->enqueue_read<float>(
        *pot_buf_,
        std::span(potential_).subspan(t.begin, t.end - t.begin), t.begin,
        dep));
  }
  for (const xcl::Event& r : reads) queue_->wait(r);
  tiles_.clear();
}

Validation Gem::validate() {
  // Every vertex sums its atoms in order in its own double accumulator.
  // W vertices ride in double lanes against one broadcast atom: subtract,
  // squares summed left to right, + 1e-6, sqrtpd, divpd and the add are
  // each correctly rounded per lane, so every lane reproduces the scalar
  // loop.  Chunks of vertices run on the pool; the sub-W tail is scalar.
  namespace sv = xcl::simd;
  constexpr std::size_t W = sv::kDoubleLanes;
  constexpr std::size_t kChunk = 64;  // vertices per pool task
  fill_input();
  const std::size_t a = mol_.atoms();
  const std::size_t v = vx_.size();
  HostVector<double> atoms(4 * a);  // x, y, z, q per atom, widened once
  for (std::size_t k = 0; k < a; ++k) {
    atoms[4 * k] = mol_.x[k];
    atoms[4 * k + 1] = mol_.y[k];
    atoms[4 * k + 2] = mol_.z[k];
    atoms[4 * k + 3] = mol_.q[k];
  }
  HostVector<float> want(v);
  xcl::ThreadPool::global().parallel_for(
      (v + kChunk - 1) / kChunk, [&](std::size_t chunk) {
        const std::size_t end = std::min(v, (chunk + 1) * kChunk);
        std::size_t i = chunk * kChunk;
        const sv::vdouble soft = sv::vbroadcast_f64(1e-6);
        for (; i + W <= end; i += W) {
          const sv::vdouble px = sv::vload_widen(&vx_[i]);
          const sv::vdouble py = sv::vload_widen(&vy_[i]);
          const sv::vdouble pz = sv::vload_widen(&vz_[i]);
          sv::vdouble acc = sv::vbroadcast_f64(0.0);
          for (std::size_t k = 0; k < a; ++k) {
            const sv::vdouble dx = px - sv::vbroadcast_f64(atoms[4 * k]);
            const sv::vdouble dy = py - sv::vbroadcast_f64(atoms[4 * k + 1]);
            const sv::vdouble dz = pz - sv::vbroadcast_f64(atoms[4 * k + 2]);
            acc += sv::vbroadcast_f64(atoms[4 * k + 3]) /
                   sv::vsqrt(dx * dx + dy * dy + dz * dz + soft);
          }
          for (std::size_t l = 0; l < W; ++l) {
            want[i + l] = static_cast<float>(acc[l]);
          }
        }
        for (; i < end; ++i) {
          double acc = 0.0;
          for (std::size_t k = 0; k < a; ++k) {
            const double dx = static_cast<double>(vx_[i]) - atoms[4 * k];
            const double dy = static_cast<double>(vy_[i]) - atoms[4 * k + 1];
            const double dz = static_cast<double>(vz_[i]) - atoms[4 * k + 2];
            acc += atoms[4 * k + 3] /
                   std::sqrt(dx * dx + dy * dy + dz * dz + 1e-6);
          }
          want[i] = static_cast<float>(acc);
        }
      });
  return validate_norm(potential_, want, 1e-3, "gem surface potential");
}

void Gem::stream_trace(sim::TraceWriter& out) const {
  // All-pairs sweep in work-item order: each vertex re-streams the atom
  // array (which therefore lives in cache after the first vertex).  The
  // atom stream is a dense 16B-stride run, so emit_run generates it at
  // coalesced (one-record-per-line) speed -- this is the trace that used to
  // be too slow to replay at medium/large (O(V*A) accesses).
  const std::size_t a = mol_.atoms();
  const std::size_t v = vx_.size();
  const std::uint64_t atoms_base = 0x10000;
  const std::uint64_t verts_base = atoms_base + a * 16;
  const std::uint64_t pot_base = verts_base + v * 12;
  for (std::size_t i = 0; i < v; ++i) {
    out.emit(verts_base + i * 12, 12, false);
    out.emit_run(atoms_base, 16, a, false);
    out.emit(pot_base + i * 4, 4, true);
  }
}

std::size_t Gem::trace_size_hint() const {
  return vx_.size() * (mol_.atoms() + 2);
}

void Gem::unbind() {
  tiles_.clear();
  pot_buf_.reset();
  verts_buf_.reset();
  atoms_buf_.reset();
  queue_ = nullptr;
}

}  // namespace eod::dwarfs
