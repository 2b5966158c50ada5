// Content-addressed cache-key derivation: one 64-bit component hash per
// input object, combined per artifact.  Every key starts with
// kModelVersion, so bumping it after any change to characterisation or
// serialisation semantics invalidates the whole cache at once.
//
// Invalidation rules (what each artifact's key covers):
//   datapath  : model version + netlist + variation config + DTS config
//   profile   : model version + program + inputs + executor config
//   control   : model version + netlist + variation config + DTS config +
//               characterizer config + timing spec + program + profile
//
// The profile key names the executor's inputs, not its code: a change to
// the executor or the ISA semantics that alters any recorded profile must
// bump kModelVersion.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "dta/control_characterizer.hpp"
#include "dta/dts_analyzer.hpp"
#include "isa/executor.hpp"
#include "isa/program.hpp"
#include "netlist/netlist.hpp"
#include "timing/sta.hpp"
#include "timing/variation.hpp"

namespace terrors::cache {

/// Bump whenever the meaning or layout of any cached artifact changes;
/// folded into every key so stale artifacts are never even looked up.
inline constexpr std::uint32_t kModelVersion = 2;

[[nodiscard]] std::uint64_t hash_netlist(const netlist::Netlist& nl);
[[nodiscard]] std::uint64_t hash_variation(const timing::VariationConfig& cfg);
[[nodiscard]] std::uint64_t hash_spec(const timing::TimingSpec& spec);
[[nodiscard]] std::uint64_t hash_dts_config(const dta::DtsConfig& cfg);
[[nodiscard]] std::uint64_t hash_characterizer_config(const dta::ControlCharacterizerConfig& cfg);
[[nodiscard]] std::uint64_t hash_program(const isa::Program& program);
[[nodiscard]] std::uint64_t hash_profile(const isa::ProgramProfile& profile);
/// Every input's registers and memory seed, in list order.
[[nodiscard]] std::uint64_t hash_inputs(const std::vector<isa::ProgramInput>& inputs);
[[nodiscard]] std::uint64_t hash_executor_config(const isa::ExecutorConfig& cfg);

/// Order-sensitive combination of component hashes (always lead with
/// kModelVersion).
[[nodiscard]] std::uint64_t combine(std::initializer_list<std::uint64_t> parts);

}  // namespace terrors::cache
