// Gemnoui electrostatic potential -- the N-Body Methods dwarf.
//
// gem computes the Coulomb potential of a biomolecular structure at points
// on its solvent-excluded surface.  The paper's molecule inputs (PDB ->
// pdb2pqr -> msms pipeline: 4TUT, 2D3V, nucleosome, 1KX5) are replaced by a
// deterministic pseudo-molecule generator producing the same atom counts
// and device-side footprints (§4.4.4: 31.3 KiB / 252 KiB / 7498 KiB /
// 10970.2 KiB); the kernel -- an all-pairs charge sum per surface vertex --
// is identical.  Only the tiny size is validated functionally, mirroring
// the paper (medium/large inputs were found to carry uninitialized values).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "dwarfs/common.hpp"

namespace eod::dwarfs {

/// A synthetic molecule in pqr-like form: positions, charges, radii.
struct Molecule {
  HostVector<float> x, y, z, q, r;
  [[nodiscard]] std::size_t atoms() const noexcept { return x.size(); }
};

/// Deterministically generates `atoms` atoms packed in a ball, with
/// alternating partial charges (pqr-style).
[[nodiscard]] Molecule generate_molecule(std::size_t atoms,
                                         std::uint64_t seed);

/// Writes a molecule in PQR format (the pdb2pqr output gem consumes:
/// ATOM records carrying position, charge and radius).
void save_pqr(const Molecule& m, const std::string& path);

/// Loads the ATOM/HETATM records of a PQR file; throws std::runtime_error
/// on IO or format errors.
[[nodiscard]] Molecule load_pqr(const std::string& path);

class Gem final : public Dwarf {
 public:
  /// Atom counts reproducing the paper's per-molecule footprints.
  [[nodiscard]] static std::size_t atoms_for(ProblemSize s);
  /// Molecule names from Table 2 (4TUT, 2D3V, nucleosome, 1KX5).
  [[nodiscard]] static const char* molecule_for(ProblemSize s);

  /// Custom molecule size; setup(size) is the named-molecule preset
  /// configure(atoms_for(size)).
  void configure(std::size_t atoms);

  /// Uses a caller-supplied molecule (e.g. loaded from a .pqr file, the
  /// pdb2pqr output the paper's gem consumes).
  void configure_with_molecule(Molecule molecule);

  [[nodiscard]] std::string name() const override { return "gem"; }
  [[nodiscard]] std::string berkeley_dwarf() const override {
    return "N-Body Methods";
  }
  [[nodiscard]] std::string scale_parameter(ProblemSize s) const override {
    return molecule_for(s);
  }
  /// Atoms (x,y,z,q) + surface vertices (x,y,z) + potentials; V = 2*A.
  [[nodiscard]] std::size_t footprint_bytes(ProblemSize s) const override {
    const std::size_t a = atoms_for(s);
    return a * 4 * sizeof(float) + 2 * a * 4 * sizeof(float);
  }

  using Dwarf::stream_trace;
  void stream_trace(sim::TraceWriter& out) const override;
  [[nodiscard]] std::size_t trace_size_hint() const override;

  void setup(ProblemSize size) override;
  void bind(xcl::Context& ctx, xcl::Queue& q) override;
  void run() override;
  void finish() override;
  [[nodiscard]] Validation validate() override;
  void unbind() override;

  /// Surface potential vector, byte-exact.
  [[nodiscard]] std::uint64_t result_signature() const override {
    return hash_result<float>(potential_);
  }
  /// The configured molecule (generated, with its surface, on first read).
  [[nodiscard]] const Molecule& molecule() const {
    fill_input();
    return mol_;
  }

 private:
  /// Sizes the surface vertex and potential arrays for mol_'s atoms.
  void size_vertices();
  void place_surface_vertices() const;
  void fill_input() const;

  /// One vertex-range tile of the potential kernel (tiled write-back,
  /// DESIGN.md §12): finish() reads tile [begin, end) of the potential
  /// buffer waiting only on that tile's kernel, so on an out-of-order
  /// queue each tile's read-back overlaps the later tiles' compute.
  struct Tile {
    std::size_t begin = 0;
    std::size_t end = 0;
    xcl::Event kernel;
  };

  // Generated on first read (InputFill); configure() only sizes them.
  mutable Molecule mol_;
  mutable HostVector<float> vx_, vy_, vz_;  // surface vertices
  InputFill input_fill_;
  HostVector<float> potential_;
  std::vector<Tile> tiles_;  // filled by run(), consumed by finish()

  xcl::Queue* queue_ = nullptr;
  std::optional<xcl::Buffer> atoms_buf_;  // xyzq interleaved
  std::optional<xcl::Buffer> verts_buf_;  // xyz interleaved
  std::optional<xcl::Buffer> pot_buf_;
};

}  // namespace eod::dwarfs
