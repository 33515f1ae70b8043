// Catalog of the concrete DFSMs used throughout the paper.
//
// Every machine that appears in the paper's figures or evaluation table is
// constructible here:
//  * Fig. 1  — mod-3 counters A (0s), B (1s) and the hand-derived fusions
//              F1 = (n0+n1) mod 3, F2 = (n0-n1) mod 3;
//  * Fig. 2  — the canonical 3-state machines A and B whose reachable cross
//              product is the 4-state top of Fig. 3 (reconstruction documented
//              at make_paper_machine_a in machine_catalog.cpp);
//  * section 6 table — MESI, TCP (RFC 793, 11 states), 0/1-counters, parity
//              checkers, toggle switch, pattern detector, shift register,
//              divisibility divider.
//
// All factories intern their events into the supplied shared Alphabet so a
// set of machines assembled from one alphabet can be cross-producted and
// driven by a single event stream.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fsm/dfsm.hpp"

namespace ffsm {

/// Mod-`modulus` counter: one state per residue, +1 (mod modulus) on `event`.
/// Fig. 1(i)/(ii) uses modulus 3 with events "0" and "1".
[[nodiscard]] Dfsm make_mod_counter(const std::shared_ptr<Alphabet>& alphabet,
                                    std::string name, std::uint32_t modulus,
                                    std::string_view event);

/// Generalised counter: state advances by `increment` (mod modulus) for each
/// listed (event, increment) pair. Expresses Fig. 1's fusions:
///   F1 = {n0 + n1} mod 3  ->  {{"0", 1}, {"1", 1}}
///   F2 = {n0 - n1} mod 3  ->  {{"0", 1}, {"1", 2}}   (-1 == +2 mod 3)
[[nodiscard]] Dfsm make_weighted_mod_counter(
    const std::shared_ptr<Alphabet>& alphabet, std::string name,
    std::uint32_t modulus,
    std::span<const std::pair<std::string_view, std::uint32_t>> increments);

/// Two-state parity tracker that flips on `event`.
[[nodiscard]] Dfsm make_parity_checker(
    const std::shared_ptr<Alphabet>& alphabet, std::string name,
    std::string_view event);

/// Two-state toggle switch flipping on `event` (default "toggle").
[[nodiscard]] Dfsm make_toggle_switch(const std::shared_ptr<Alphabet>& alphabet,
                                      std::string name,
                                      std::string_view event = "toggle");

/// KMP prefix automaton for `pattern` over events "0"/"1".
/// |pattern| + 1 states; state = length of the longest pattern prefix that is
/// a suffix of the input, with the full-match state continuing by border.
/// The paper's 4-state "pattern generator" corresponds to a length-3 pattern.
[[nodiscard]] Dfsm make_pattern_detector(
    const std::shared_ptr<Alphabet>& alphabet, std::string name,
    std::string_view pattern);

/// `bits`-bit shift register over events "0"/"1": 2^bits states holding the
/// last `bits` inputs. The paper's table row 1 uses 8 states (3 bits).
[[nodiscard]] Dfsm make_shift_register(
    const std::shared_ptr<Alphabet>& alphabet, std::string name,
    std::uint32_t bits);

/// Binary divisibility checker ("divider"): state = value of the bit stream
/// read so far, modulo `divisor`; on bit b, s -> (2s + b) mod divisor.
[[nodiscard]] Dfsm make_divisibility_checker(
    const std::shared_ptr<Alphabet>& alphabet, std::string name,
    std::uint32_t divisor);

/// MESI cache-coherence protocol (4 states: I, S, E, M; 5 bus/processor
/// events). Deterministic variant: a read miss raises either "pr_rd" (other
/// sharers exist -> S) or "pr_rd_excl" (no sharers -> E).
[[nodiscard]] Dfsm make_mesi(const std::shared_ptr<Alphabet>& alphabet,
                             std::string name = "MESI");

/// TCP connection state machine (RFC 793): the classic 11 states
/// CLOSED..TIME_WAIT over 9 segment/application events; unspecified pairs are
/// self-loops.
[[nodiscard]] Dfsm make_tcp(const std::shared_ptr<Alphabet>& alphabet,
                            std::string name = "TCP");

/// The paper's Fig. 2 machine A (3 states over events "0"/"1"); its closed
/// partition of the canonical top is {t0,t3} {t1} {t2}.
[[nodiscard]] Dfsm make_paper_machine_a(
    const std::shared_ptr<Alphabet>& alphabet, std::string name = "A");

/// The paper's Fig. 2 machine B (3 states over events "0"/"1"); its closed
/// partition of the canonical top is {t0} {t1} {t2,t3}.
[[nodiscard]] Dfsm make_paper_machine_b(
    const std::shared_ptr<Alphabet>& alphabet, std::string name = "B");

/// MOESI cache-coherence protocol (5 states: adds Owned to MESI; same five
/// events). A modified line snooped by a read becomes Owned instead of
/// Shared.
[[nodiscard]] Dfsm make_moesi(const std::shared_ptr<Alphabet>& alphabet,
                              std::string name = "MOESI");

/// DHCP client state machine (RFC 2131 core): INIT, SELECTING, REQUESTING,
/// BOUND, RENEWING, REBINDING over 7 lease-lifecycle events; unspecified
/// pairs self-loop.
[[nodiscard]] Dfsm make_dhcp_client(const std::shared_ptr<Alphabet>& alphabet,
                                    std::string name = "DHCP");

/// Sliding-window occupancy tracker: states 0..window (outstanding,
/// unacknowledged sends); "send" saturates at the window, "ack" at zero.
/// Saturation makes this a genuinely non-group machine — useful stress for
/// the lattice code paths that counter examples never hit.
[[nodiscard]] Dfsm make_sliding_window(
    const std::shared_ptr<Alphabet>& alphabet, std::string name,
    std::uint32_t window);

/// Traffic light: RED -> GREEN -> YELLOW -> RED on "timer"; "emergency"
/// forces RED from anywhere.
[[nodiscard]] Dfsm make_traffic_light(const std::shared_ptr<Alphabet>& alphabet,
                                      std::string name = "TrafficLight");

/// Gray-code counter: 2^bits states cycling through the reflected Gray
/// sequence on "clk" (structurally a mod-2^bits counter with Gray-coded
/// state names — exercised by the isomorphism tests).
[[nodiscard]] Dfsm make_gray_code_counter(
    const std::shared_ptr<Alphabet>& alphabet, std::string name,
    std::uint32_t bits);

/// Johnson (twisted-ring) counter: 2*stages states cycling on "clk".
[[nodiscard]] Dfsm make_johnson_counter(
    const std::shared_ptr<Alphabet>& alphabet, std::string name,
    std::uint32_t stages);

/// Maximal-length Fibonacci LFSR over "clk": 2^degree - 1 nonzero register
/// values in orbit order (degree 3..7, fixed primitive taps).
[[nodiscard]] Dfsm make_lfsr(const std::shared_ptr<Alphabet>& alphabet,
                             std::string name, std::uint32_t degree);

/// The canonical 4-state top of Fig. 3 with the paper's state numbering
/// (t0 = {a0,b0}, t1 = {a1,b1}, t2 = {a2,b2}, t3 = {a0,b2}):
///   t0 -0-> t1, t1 -0-> t2, t2 -0-> t1, t3 -0-> t1; every state -1-> t3.
/// Isomorphic to reachable_cross_product({A, B}).top, whose BFS numbering
/// happens to swap t2/t3; regression tests quote the paper's numbering, so
/// they run against this machine.
[[nodiscard]] Dfsm make_paper_top(const std::shared_ptr<Alphabet>& alphabet,
                                  std::string name = "TOP");

/// Named machine sets of the evaluation table (section 6), one per row.
struct TableRowSpec {
  std::string label;        // as printed in the paper
  std::uint32_t faults;     // column f
  std::vector<Dfsm> machines;
};

/// Builds the five rows of the paper's results table over a fresh alphabet
/// per row.
[[nodiscard]] std::vector<TableRowSpec> make_results_table_rows();

}  // namespace ffsm
