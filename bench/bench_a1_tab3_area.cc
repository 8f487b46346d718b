// Article 1 (SBCCI), Table 3: area overhead of the DSA relative to the ARM
// core, from the component area model (calibrated to the paper's Cadence
// RTL Compiler synthesis results).
//
// Paper values: DSA logic = 2.18% of the core; DSA + caches = 10.37% of
// core + caches.
#include <cstdio>
#include <cstring>
#include <string>

#include "energy/energy_model.h"
#include "engine/config.h"
#include "mem/json.h"

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json PATH]\n", argv[0]);
      return 2;
    }
  }
  const dsa::energy::AreaParams p;
  const dsa::engine::DsaConfig cfg;
  const dsa::energy::AreaReport r = dsa::energy::ComputeArea(
      p, cfg.dsa_cache_bytes, cfg.verification_cache_bytes, cfg.array_maps);

  std::printf("Article 1 Table 3 — area overhead of DSA (um^2)\n\n");
  std::printf("%-22s %14s\n", "component", "total area");
  std::printf("%-22s %14.0f\n", "ARM core", r.arm_core);
  std::printf("%-22s %14.0f\n", "DSA logic", r.dsa_logic);
  std::printf("%-22s %13.2f%%  (paper: 2.18%%)\n", "logic overhead",
              r.logic_overhead_pct);
  std::printf("\n%-22s %14.0f\n", "ARM core + caches", r.arm_with_caches);
  std::printf("%-22s %14.0f\n", "DSA + caches", r.dsa_with_caches);
  std::printf("%-22s %13.2f%%  (paper: 10.37%%)\n", "total overhead",
              r.total_overhead_pct);

  std::printf("\nsweep: DSA cache size vs. total overhead\n");
  for (const std::uint32_t kb : {2u, 4u, 8u, 16u, 32u}) {
    const auto s = dsa::energy::ComputeArea(
        p, kb * 1024, cfg.verification_cache_bytes, cfg.array_maps);
    std::printf("  %2u kB DSA cache -> %.2f%%\n", kb, s.total_overhead_pct);
  }

  // The area model is closed-form (no simulation runs), so this driver
  // emits its own flat JSON rather than going through the BatchRunner.
  if (!json_path.empty()) {
    dsa::mem::JsonBuilder w(dsa::mem::JsonBuilder::Style::kSpaced);
    w.Object();
    w.Key("schema").Str("dsa-bench-json/1");
    w.Key("bench").Str("a1_tab3_area");
    w.Key("area_um2").Object();
    w.Key("arm_core").Num(r.arm_core, "%.1f");
    w.Key("dsa_logic").Num(r.dsa_logic, "%.1f");
    w.Key("arm_with_caches").Num(r.arm_with_caches, "%.1f");
    w.Key("dsa_with_caches").Num(r.dsa_with_caches, "%.1f");
    w.End();
    w.Key("logic_overhead_pct").Num(r.logic_overhead_pct, "%.4f");
    w.Key("total_overhead_pct").Num(r.total_overhead_pct, "%.4f");
    w.End().Whitespace("\n");
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "could not write %s\n", json_path.c_str());
      return 1;
    }
    const bool written = std::fputs(w.str().c_str(), f) >= 0;
    if (std::fclose(f) != 0 || !written) {
      std::fprintf(stderr, "could not write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\n[a1_tab3_area] wrote %s\n", json_path.c_str());
  }
  return 0;
}
