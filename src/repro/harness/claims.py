"""The paper's claims, one row each, checked on artifacts already built.

The evaluation section is a set of shape claims — who is hurt by o, g,
L and G, by roughly what factor, where the curves cross — so each row
of :data:`CLAIMS` is ``(id, artifact, claim, paper value, measured
value, bound, holds-at scale)``.  :func:`evaluate` reads every measured
value off the artifacts ``python -m repro.harness`` drained (it
simulates nothing), and a row holds when its bound accepts the value.
A row off the 32-node machine or its holds-at scale, or about an
application the run left out, is written as not applicable rather than
dropped.

A row's id prefix names the record of :mod:`repro.harness.artifacts`
that owns it; the row's artifact title and holds-at scale are that
record's.  The paper's own numbers live here only: the registry's
sections read :data:`PAPER`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.apps import SUITE_ORDER

__all__ = ["Bound", "Measure", "Claim", "CLAIMS", "PAPER", "evaluate"]

#: The ten applications, in Table 3's order; the first four are the
#: most frequent communicators.
SUITE = SUITE_ORDER
FREQUENT = SUITE[:4]
#: The input scale the suite's rows were checked at.
SCALE = 0.5
#: The cluster size every row is stated for, as the paper's.
NODES = 32


@dataclass(frozen=True)
class Bound:
    """What a measured value must satisfy, and how to say it."""

    text: str
    test: Callable[[Any], bool]


def above(x: float) -> Bound:
    return Bound(f"> {x:g}", lambda v: v > x)


def below(x: float) -> Bound:
    return Bound(f"< {x:g}", lambda v: v < x)


def between(lo: float, hi: float) -> Bound:
    return Bound(f"in ({lo:g}, {hi:g})", lambda v: lo < v < hi)


def equals(x: Any) -> Bound:
    return Bound(f"= {x}", lambda v: v == x)


def one_of(*names: str) -> Bound:
    return Bound("one of " + ", ".join(names), lambda v: v in names)


AT_LEAST_80 = Bound(">= 0.8", lambda v: v >= 0.8)
RISING = Bound("non-decreasing",
               lambda v: all(b >= a - 1e-9 for a, b in zip(v, v[1:])))
FALLING = Bound("decreasing", lambda v: all(b < a for a, b in zip(v, v[1:])))


class Measure:
    """A measured value, ``measure(artifacts)``, about ``apps``; ``/``
    divides two of them."""

    def __init__(self, read: Callable[[Any], Any], *apps: str):
        self.read, self.apps = read, apps

    def __call__(self, artifacts: Any) -> Any:
        return self.read(artifacts)

    def __truediv__(self, other: "Measure") -> "Measure":
        return Measure(lambda a: self(a) / other(a), *self.apps, *other.apps)


@dataclass(frozen=True)
class Claim:
    """One row; the artifact and holds-at scale follow from the id."""

    id: str
    claim: str
    paper: Any
    bound: Bound
    measure: Measure

    @property
    def artifact(self) -> str:
        return self._owner().title

    @property
    def holds_at(self) -> Optional[float]:
        """The suite's scale, unless its artifact reads no suite app."""
        return SCALE if self._owner().apps else None

    def _owner(self):
        # The registry reads PAPER, so it is imported when first asked.
        from repro.harness.artifacts import OWNERS
        return OWNERS[self.id.split(".")[0]]


# ---------------------------------------------------------------------------
# Measures.
# ---------------------------------------------------------------------------

def peak(figure: str, name: str) -> Measure:
    """One app's largest slowdown in a sensitivity figure."""
    return Measure(lambda a: a[figure].max_slowdown(name), name)


def slowdown_at(figure: str, name: str, value: float) -> Measure:
    return Measure(lambda a: dict(
        a[figure].sweeps[name].series())[value], name)


def largest(figure: str, names: Sequence[str] = SUITE) -> Measure:
    return Measure(lambda a: max(a[figure].max_slowdown(n)
                                 for n in names), *names)


def most_hurt(figure: str) -> Measure:
    return Measure(lambda a: max(SUITE, key=a[figure].max_slowdown),
                   *SUITE)


def linearity(figure: str, name: str) -> Measure:
    """Steepest over shallowest slope of a slowdown curve (1 = a line);
    None unless every slope rises."""
    def read(a):
        series = a[figure].sweeps[name].series()
        slopes = [(y2 - y1) / (x2 - x1)
                  for (x1, y1), (x2, y2) in zip(series, series[1:])]
        return max(slopes) / min(slopes) if min(slopes) > 0 else None
    return Measure(read, name)


def runtime(name: str, n_nodes: int) -> Measure:
    """Table 3's runtime, ms."""
    return Measure(lambda a: a["table3"][name][n_nodes] / 1000, name)


def summary(attribute: str, names: Sequence[str],
            reduce: Callable = min) -> Measure:
    """A Table 4 column, reduced over ``names``."""
    return Measure(lambda a: reduce(
        getattr(a["table4"].results[n].summary(), attribute) for n in names),
        *names)


def frequency(reduce: Callable) -> Measure:
    """The app ``reduce`` (min/max) picks by messages/proc/ms."""
    return Measure(lambda a: reduce(SUITE, key=lambda n: a["table4"].results[
        n].summary().messages_per_proc_per_ms), *SUITE)


def matrix(name: str, read: Callable[[np.ndarray], Any]) -> Measure:
    """``read`` of one app's Figure 4 matrix — Table 4's run of it."""
    return Measure(lambda a: read(a["table4"].results[name].balance()), name)


def _ring_contrast(m: np.ndarray) -> np.ndarray:
    """Radix's cyclic-shift cells over the mean of the other
    off-diagonal cells."""
    n = len(m)
    ring = np.array([m[i, (i + 1) % n] for i in range(n)])
    return ring / ((m.sum() - ring.sum()) / (n * (n - 2)))


def _swath(m: np.ndarray) -> float:
    """Mean cell within ring distance 2 of the diagonal over the rest."""
    i, j = np.indices(m.shape)
    distance = np.minimum((i - j) % len(m), (j - i) % len(m))
    return m[(distance > 0) & (distance <= 2)].mean() / m[distance > 2].mean()


def _off_diagonal(m: np.ndarray) -> np.ndarray:
    return m[~np.eye(len(m), dtype=bool)]


def calibrated(dial: str, error: Callable) -> Measure:
    """Table 2's worst ``error(row)`` over one dial's rows."""
    return Measure(lambda a: max(error(r) for r in a["table2"].rows_
                                 if r.dialed == dial))


def top_calibrated(dial: str, read: Callable) -> Measure:
    """``read`` of the largest-target row of one Table 2 dial."""
    return Measure(lambda a: read([r for r in a["table2"].rows_
                                   if r.dialed == dial][-1]))


def platform(name: str) -> Measure:
    """Table 1's measured (o, g, L, MB/s) of one machine."""
    return Measure(lambda a: next(
        [r["o (us)"], r["g (us)"], r["L (us)"], r["MB/s (1/G)"]]
        for r in a["table1"].rows() if r["Platform"] == name))


def fit(table: str, name: str) -> Measure:
    """Worst |predicted - measured| / measured of one app's model rows."""
    return Measure(lambda a: max(
        abs(e) for e in a[table].prediction_error(name)), name)


def top_rows(table: str, column: str, read: Callable,
             names: Sequence[str]) -> Measure:
    """``read`` of a model table's rows at its largest dialed value."""
    def rows(a):
        rows = a[table].rows()
        top = max(r[column] for r in rows)
        return read([r for r in rows if r[column] == top])
    return Measure(rows, *names)


def _ok_share(rows: List[dict]) -> float:
    return sum(r["within_10pct"] == "ok" for r in rows) / len(rows)


# ---------------------------------------------------------------------------
# The rows.
# ---------------------------------------------------------------------------

PAPER_T1 = {"berkeley-now": (2.9, 5.8, 5.0, 38),
            "intel-paragon": (1.8, 7.6, 6.5, 141),
            "meiko-cs2": (1.7, 13.6, 7.5, 47)}
PAPER_T3 = {"Radix": (13.66, 7.76), "EM3D(write)": (88.59, 37.98),
            "EM3D(read)": (230.0, 114.0), "Sample": (24.65, 13.23),
            "Barnes": (77.89, 43.24), "P-Ray": (23.47, 17.91),
            "Murphi": (67.68, 35.33), "Connect": (2.29, 1.17),
            "NOW-sort": (127.2, 56.87), "Radb": (6.96, 3.73)}
WELL_PARALLELISED = ("EM3D(write)", "EM3D(read)", "Sample", "NOW-sort")
#: Figures 5-7 per app: the paper's slowdown at the top of the dial and
#: the bound the reproduction holds it to (``above(1)``: it slows).
PEAKS = {
    ("f5", "figure5", "o=103"): {
        "Radix": ("57x", above(10)), "EM3D(write)": ("27x", above(10)),
        "EM3D(read)": ("22x", above(10)), "Sample": ("21x", above(10)),
        "Barnes": ("N/A (livelock past o≈7)", above(1)),
        "P-Ray": ("6.4x", above(1)), "Murphi": ("3.1x", above(1)),
        "Connect": ("2.2x", below(8)), "NOW-sort": ("1.25x", below(2.5)),
        "Radb": ("1.7x", below(10))},
    ("f6", "figure6", "g=105"): {
        "Radix": ("17.2x", above(5)), "EM3D(write)": ("13.6x", above(5)),
        "EM3D(read)": ("8.7x", above(1)), "Sample": ("10.6x", above(5)),
        "Barnes": ("4.8x", above(1)), "P-Ray": ("2.0x", above(1)),
        "Murphi": ("1.1x", below(4)), "Connect": ("1.6x", below(4)),
        "NOW-sort": ("1.0x", below(4)), "Radb": ("1.1x", below(4))},
    ("f7", "figure7", "L=105"): {
        "Radix": ("1.8x", below(3)), "EM3D(write)": ("2.2x", above(1)),
        "EM3D(read)": ("8.7x", above(4)), "Sample": ("1.6x", below(3)),
        "Barnes": ("4.8x", above(1)), "P-Ray": ("3.4x", above(1)),
        "Murphi": ("1.1x", below(3)), "Connect": ("3.9x", above(1)),
        "NOW-sort": ("1.0x", below(3)), "Radb": ("1.1x", below(3))},
}
SHORT_ONLY = ("Radix", "EM3D(write)", "EM3D(read)", "Sample", "Connect")
T6_APPS = ("Radix", "EM3D(write)", "Sample", "NOW-sort", "Connect")


def _near(paper) -> Bound:
    o, g, L, mb = paper
    return Bound("o ±0.3, g ±(15%+0.3), L ±0.5, MB/s ±(8%+1)",
                 lambda m: abs(m[0] - o) < 0.3
                 and abs(m[1] - g) < 0.15 * g + 0.3 and abs(m[2] - L) < 0.5
                 and abs(m[3] - mb) < 0.08 * mb + 1)


CLAIMS: List[Claim] = [
    *(Claim(f"t1.{name}", f"the microbenchmarks recover {name}'s "
            "(o, g, L, MB/s)", paper, _near(paper), platform(name))
      for name, paper in PAPER_T1.items()),
    Claim("t1.bandwidth_order", "MB/s: Paragon, Meiko, NOW", [141, 47, 38],
          FALLING, Measure(lambda a: [platform(n)(a)[3] for n in (
              "intel-paragon", "meiko-cs2", "berkeley-now")])),
    Claim("t1.gap_order", "g: Meiko over Paragon", round(13.6 / 7.6, 2),
          above(1), Measure(lambda a: platform("meiko-cs2")(a)[1]
                            / platform("intel-paragon")(a)[1])),

    Claim("f3.send_overhead", "short bursts expose o_send (µs)", 1.8,
          between(1.6, 2.0), Measure(lambda a: a["figure3"].send_overhead())),
    Claim("f3.steady_gap", "long Δ=0 bursts read g=14 slightly low (µs)",
          12.8, Bound("in (11, 14.2]", lambda v: 11.0 < v <= 14.2),
          Measure(lambda a: a["figure3"].steady_state(0.0))),
    Claim("f3.delta10_plateau", "Δ=10 levels at o_send + o_recv + Δ (µs)",
          15.8, between(15.0, 16.6),
          Measure(lambda a: a["figure3"].steady_state(10.0))),
    Claim("f3.rises_to_steady", "Δ=0 µs/msg by burst size, o toward g",
          None, RISING, Measure(lambda a: [v for _m, v in sorted(
              a["figure3"].intervals[0.0].items())])),
    Claim("f3.round_trip", "round trip at g=14 (µs)", 21,
          between(20.6, 22.6), Measure(lambda a: a["rtt"])),

    Claim("t2.o_hits_target", "o dial: worst |o - desired| / desired", None,
          below(0.02), calibrated("o", lambda r: abs(
              r.measured.overhead - r.desired) / r.desired)),
    Claim("t2.o_leaves_L", "o dial: worst |L - 5| (µs)", None, below(2),
          calibrated("o", lambda r: abs(r.measured.latency - 5.0))),
    Claim("t2.large_o_gap", "o=103: g over 2·o (the CPU is the bottleneck)",
          None, between(0.92, 1.08), top_calibrated(
              "o", lambda r: r.measured.gap / (2 * r.desired))),
    Claim("t2.g_tracks_target", "g dial: lowest and highest g / desired",
          "99 for 105", Bound("in [0.8, 1.05]", lambda v: v[0] >= 0.8
                              and v[1] <= 1.05),
          Measure(lambda a: [f(r.measured.gap / r.desired
                               for r in a["table2"].rows_ if r.dialed == "g")
                             for f in (min, max)])),
    Claim("t2.g_leaves_o", "g dial: worst |o - 2.9| (µs)", None, below(0.2),
          calibrated("g", lambda r: abs(r.measured.overhead - 2.9))),
    Claim("t2.g_leaves_L", "g dial: worst |L - 5| (µs)", None, below(1),
          calibrated("g", lambda r: abs(r.measured.latency - 5.0))),
    Claim("t2.L_hits_target", "L dial: worst |L - desired| (µs)", None,
          below(0.6), calibrated("L", lambda r: abs(
              r.measured.latency - r.desired))),
    Claim("t2.L_leaves_o", "L dial: worst |o - 2.9| (µs)", None, below(0.2),
          calibrated("L", lambda r: abs(r.measured.overhead - 2.9))),
    Claim("t2.large_L_gap_rises", "L=105 lifts g past 3 x 5.8 µs", 27.7,
          above(17.4), top_calibrated("L", lambda r: r.measured.gap)),
    Claim("t2.large_L_gap_rtt_window", "L=105: g near RTT/window = 26.4 µs",
          27.7, between(21.375, 31.375),
          top_calibrated("L", lambda r: r.measured.gap)),
    *(Claim(f"window.w{w}", f"L=105, window {w}: g within 20% of "
            f"RTT/window = {2 * 105.5 / w:.1f} µs", None,
            between(0.8 * 2 * 105.5 / w, 1.2 * 2 * 105.5 / w),
            Measure(lambda a, w=w: a["windows"][w])) for w in (4, 8, 16)),
    Claim("window.wider_fills_the_pipe", "g at windows 4, 8, 16", None,
          FALLING, Measure(lambda a: [a["windows"][w] for w in (4, 8, 16)])),

    *(Claim(f"t3.{name}", f"{name} completes on 16 and 32 nodes (ms)",
            list(paper), Bound("both > 0", lambda v: min(v) > 0),
            Measure(lambda a, n=name: [runtime(n, p)(a) for p in (16, 32)],
                    name)) for name, paper in PAPER_T3.items()),
    *(Claim(f"t3.speedup.{name}", f"{name} speeds up from 16 to 32 nodes",
            round(PAPER_T3[name][0] / PAPER_T3[name][1], 2), above(1.15),
            runtime(name, 16) / runtime(name, 32))
      for name in WELL_PARALLELISED),
    Claim("t3.em3d_read_slower", "32 nodes: EM3D(read) over EM3D(write)",
          round(114.0 / 37.98, 2), above(1),
          runtime("EM3D(read)", 32) / runtime("EM3D(write)", 32)),
    Claim("t3.radb_faster", "32 nodes: Radb over Radix",
          round(3.73 / 7.76, 2), below(1),
          runtime("Radb", 32) / runtime("Radix", 32)),

    Claim("t4.frequent_vs_nowsort", "msgs/proc/ms: least of the frequent "
          "four over NOW-sort", None, above(5),
          summary("messages_per_proc_per_ms", FREQUENT)
          / summary("messages_per_proc_per_ms", ["NOW-sort"])),
    Claim("t4.least_frequent", "least frequent communicator", "NOW-sort",
          equals("NOW-sort"), frequency(min)),
    Claim("t4.most_frequent", "most frequent communicator", None,
          one_of("Radix", "EM3D(write)", "Sample"), frequency(max)),
    Claim("t4.read_dominated", "least % reads of EM3D(read), P-Ray, Connect",
          [97, 96, 67], above(40),
          summary("percent_reads", ["EM3D(read)", "P-Ray", "Connect"])),
    Claim("t4.write_only", "most % reads of Radix, EM3D(write), Sample, "
          "Murphi, NOW-sort", 0, below(1), summary("percent_reads", [
              "Radix", "EM3D(write)", "Sample", "Murphi", "NOW-sort"], max)),
    Claim("t4.bulk_users", "least % bulk of P-Ray, NOW-sort, Radb, Barnes",
          [48, 50, 35, 23], above(10), summary(
              "percent_bulk", ["P-Ray", "NOW-sort", "Radb", "Barnes"])),
    Claim("t4.short_only", "most % bulk of the short-message apps", 0,
          below(1), summary("percent_bulk", SHORT_ONLY, max)),
    Claim("t4.barrier_interval", "barrier interval, EM3D(write) over "
          "NOW-sort", None, below(1),
          summary("barrier_interval_ms", ["EM3D(write)"])
          / summary("barrier_interval_ms", ["NOW-sort"])),
    Claim("t4.bulk_bandwidth", "least bulk KB/s of NOW-sort, P-Ray, Barnes",
          None, above(50), summary("bulk_kb_per_s",
                                   ["NOW-sort", "P-Ray", "Barnes"])),
    Claim("t4.short_bandwidth", "most bulk KB/s of EM3D(write), "
          "EM3D(read), Sample", None, below(10),
          summary("bulk_kb_per_s", SHORT_ONLY[1:4], max)),

    # Figure 4's matrices are Table 4's runs (the same run keys).
    Claim("f4.no_self_messages", "apps whose 32x32 matrix has an empty "
          "diagonal", None, equals(10), Measure(lambda a: sum(
              m.shape == (32, 32) and not np.diag(m).any()
              for m in (a["table4"].results[n].balance() for n in SUITE)), *SUITE)),
    Claim("f4.radix_ring", "Radix: mean ring cell over the background",
          None, above(1.3),
          matrix("Radix", lambda m: _ring_contrast(m).mean())),
    Claim("f4.radix_ring_min", "Radix: lightest ring cell over the "
          "background", None, above(1),
          matrix("Radix", lambda m: _ring_contrast(m).min())),
    Claim("f4.em3d_swath", "EM3D(write): near-diagonal swath over the rest",
          None, above(3), matrix("EM3D(write)", _swath)),
    Claim("f4.sample_columns", "Sample: heaviest over lightest receiver "
          "column", None, above(1.3), matrix(
              "Sample", lambda m: m.sum(axis=0).max() / m.sum(axis=0).min())),
    Claim("f4.pray_hot_columns", "P-Ray: hottest receiver column over the "
          "mean", None, above(1.3), matrix(
              "P-Ray", lambda m: m.sum(axis=0).max() / m.sum(axis=0).mean())),
    Claim("f4.nowsort_all_pairs", "NOW-sort: lightest off-diagonal cell",
          None, above(0),
          matrix("NOW-sort", lambda m: _off_diagonal(m).min())),
    Claim("f4.nowsort_balanced", "NOW-sort: off-diagonal std / mean", None,
          below(0.75), matrix("NOW-sort", lambda m: _off_diagonal(m).std()
                              / _off_diagonal(m).mean())),

    *(Claim(f"{prefix}.max.{name}", f"{name} at {top}, 32 nodes", paper,
            bound, peak(figure, name))
      for (prefix, figure, top), apps in PEAKS.items()
      for name, (paper, bound) in apps.items()),
    Claim("f5.radix_vs_radb", "per-key Radix over bulk Radb", round(57 / 1.7),
          above(3), peak("figure5", "Radix") / peak("figure5", "Radb")),
    Claim("f5.most_hurt", "most overhead-sensitive app", "Radix",
          one_of(*FREQUENT), most_hurt("figure5")),
    Claim("f5.radix_linear", "Radix: steepest over shallowest slope", None,
          below(1.5), linearity("figure5", "Radix")),
    *(Claim(f"f5.nodes_ratio.{name}", f"{name}: peak on 32 nodes over 16",
            None, between(0.5, 2.0),
            peak("figure5", name) / peak("figure5_16", name))
      for name in ("Sample", "EM3D(write)", "NOW-sort")),
    *(Claim(f"t5.fit.{name}", f"{name}: worst relative model error", None,
            below(0.35), fit("table5", name))
      for name in ("Sample", "EM3D(write)")),
    Claim("t5.radix_under_predicted", "Radix at o=103: measured over "
          "predicted", None, above(1), top_rows(
              "table5", "o (us)", lambda rows: next(
                  r["measured_us"] / r["predicted_us"] for r in rows
                  if r["app"] == "Radix"), ["Radix"])),

    Claim("f6.most_hurt", "most gap-sensitive app", "Radix",
          one_of(*FREQUENT), most_hurt("figure6")),
    Claim("f6.radix_linear", "Radix: steepest over shallowest slope", None,
          below(1.6), linearity("figure6", "Radix")),
    *(Claim(f"t6.fit.{name}", f"{name}: worst relative model error", None,
            below(0.4), fit("table6", name))
      for name in ("Radix", "EM3D(write)", "Sample")),
    Claim("t6.no_gross_under_prediction", "g=105: least predicted over "
          "measured", None, Bound(">= 0.6", lambda v: v >= 0.6), top_rows(
              "table6", "g (us)", lambda rows: min(
                  r["predicted_us"] / r["measured_us"] for r in rows),
              T6_APPS)),

    Claim("f7.most_hurt", "most latency-sensitive app", "EM3D(read)",
          equals("EM3D(read)"), most_hurt("figure7")),
    Claim("f7.read_vs_write", "EM3D(read) over EM3D(write)",
          round(8.7 / 2.2, 2), above(2),
          peak("figure7", "EM3D(read)") / peak("figure7", "EM3D(write)")),
    Claim("f7.radix_vs_em3d_read", "Radix over EM3D(read)",
          round(1.8 / 8.7, 2), below(1),
          peak("figure7", "Radix") / peak("figure7", "EM3D(read)")),
    Claim("f7.radix_vs_connect", "Radix over Connect", round(1.8 / 3.9, 2),
          below(1), peak("figure7", "Radix") / peak("figure7", "Connect")),
    Claim("f7.weaker_than_overhead", "largest slowdown at L=105", "8.7x",
          below(12), largest("figure7")),

    Claim("f8.max", "largest slowdown at 1 MB/s", "~3x", below(3.5),
          largest("figure8")),
    Claim("f8.flat_to_15", "largest slowdown at 15 MB/s", None, below(1.25),
          Measure(lambda a: max(slowdown_at("figure8", n, 15.0)(a)
                                for n in SUITE), *SUITE)),
    Claim("f8.nowsort_at_5_5", "NOW-sort at 5.5 MB/s (disk-limited)", None,
          below(1.3), slowdown_at("figure8", "NOW-sort", 5.5)),
    Claim("f8.nowsort_at_1", "NOW-sort at 1 MB/s", None, above(1.5),
          slowdown_at("figure8", "NOW-sort", 1.0)),
    Claim("f8.nowsort_peaks_at_1", "MB/s of NOW-sort's largest slowdown",
          None, equals(1.0), Measure(lambda a: max(
              a["figure8"].sweeps["NOW-sort"].series(), key=lambda p: p[1])[0],
              "NOW-sort")),
    Claim("f8.short_messages_flat", "largest slowdown of the short-message "
          "apps", None, below(1.2), largest("figure8", SHORT_ONLY)),

    Claim("t8.agreement", "share of cells whose model pick is within 10% "
          "of the measured best", None, AT_LEAST_80,
          Measure(lambda a: _ok_share(a["table8"].rows()))),
    Claim("t8.size_flips_a_pick", "primitives whose model pick changes "
          "with size", None, above(0), Measure(lambda a: sum(
              len({r["model_pick"] for r in a["table8"].rows()
                   if r["primitive"] == p}) > 1
              for p in {r["primitive"] for r in a["table8"].rows()}))),
    Claim("coll.grid_agreement", "t8.agreement over P 4/8/16 x size "
          "x 38/4 MB/s", None, AT_LEAST_80,
          Measure(lambda a: _ok_share(a["coll_grid"]))),

    Claim("surface.monotone", "Sample's slowdown never falls along either "
          "dial", None, equals(True),
          Measure(lambda a: a["surface"].is_monotone(), "Sample")),
    Claim("surface.overhead_beats_gap", "+100 µs of o over +100 µs of g",
          None, above(1), Measure(lambda a: a["surface"].at(100.0, 0.0)
                                  / a["surface"].at(0.0, 100.0), "Sample")),
    Claim("surface.redundant_corner", "corner slowdown minus the additive "
          "composition", None, below(0),
          Measure(lambda a: a["surface"].interaction_excess(100.0, 100.0),
                  "Sample")),

    # The same runs as Figure 5's Radix points at o = 2.9 and 102.9.
    Claim("scaling.residual_32", "Radix at +100 µs o, 32 nodes: measured "
          "over r + 2·m·Δo", None, above(1.1),
          Measure(lambda a: a["scaling"].serial_residual(32), "Radix")),
    Claim("scaling.residual_grows", "Radix residual, 32 nodes over 16",
          None, above(1),
          Measure(lambda a: a["scaling"].residual_growth(), "Radix")),
    *(Claim(f"scaling.slowdown.{n}", f"Radix at +100 µs o on {n} nodes",
            None, above(10),
            Measure(lambda a, n=n: a["scaling"].slowdown(n), "Radix"))
      for n in (16, 32)),
    Claim("investment.comm_beats_cpu", "Sample: speedup of 1/2 (o, g) over "
          "that of 2x CPU", None, above(1), Measure(lambda a: (
              a["investment"].speedup("1/2 o and g")
              / a["investment"].speedup("2x cpu")), "Sample")),
    Claim("investment.cpu_helps", "Sample: speedup of 2x CPU", None,
          above(1),
          Measure(lambda a: a["investment"].speedup("2x cpu"), "Sample")),
    *(Claim(f"occupancy.{dial}_monotone", f"EM3D(read) at +0/10/25/50 µs "
            f"of {dial}", None, RISING,
            Measure(lambda a, d=dial: a["occupancy"].slowdowns(d),
                    "EM3D(read)"))
      for dial in ("occupancy", "overhead")),
    Claim("occupancy.vs_overhead", "EM3D(read) at +50 µs: occupancy over "
          "overhead", None, above(0.75), Measure(lambda a: (
              a["occupancy"].slowdowns("occupancy")[-1]
              / a["occupancy"].slowdowns("overhead")[-1]), "EM3D(read)")),
    Claim("occupancy.top", "EM3D(read) at +50 µs of occupancy", None,
          above(3), Measure(lambda a: a["occupancy"].slowdowns("occupancy")[-1],
                            "EM3D(read)")),

    Claim("scope.per_destination", "all-to-all at +100 µs L, "
          "per-destination windows", None, below(1.5),
          Measure(lambda a: a["window_scope"]["per-destination"])),
    Claim("scope.global", "the same, one global window over per-destination",
          None, above(2), Measure(lambda a: a["window_scope"]["global"]
                                  / a["window_scope"]["per-destination"])),
    Claim("burst.paced", "ring sends every 250 µs at +100 µs g", None,
          below(1.2), Measure(lambda a: a["burst"]["paced"])),
    Claim("burst.burst", "the same sent flat out", None, above(3),
          Measure(lambda a: a["burst"]["burst"])),
]
#: Row id -> the paper's value.
PAPER: Dict[str, Any] = {claim.id: claim.paper for claim in CLAIMS}


def _rounded(value: Any) -> Any:
    """JSON-ready: numpy scalars unwrapped, floats to 4 decimals."""
    if isinstance(value, (list, tuple)):
        return [_rounded(v) for v in value]
    if isinstance(value, np.generic):
        value = value.item()
    return round(value, 4) if isinstance(value, float) else value


def evaluate(artifacts: Dict[str, Any], scale: float,
             apps: Optional[Sequence[str]] = None,
             claims: Sequence[Claim] = CLAIMS,
             nodes: int = NODES) -> List[dict]:
    """Every row as a dict, its ``status`` ``holds``, ``fails`` or
    ``n/a``.  ``artifacts`` maps each registry name the rows read
    (``table3``, ``figure5``, ...) to its built value, ``scale`` and
    ``nodes`` are the input scale and cluster size they were built at
    and ``apps`` the applications they cover (None: all ten)."""
    rows = []
    for claim in claims:
        applicable = nodes == NODES and claim.holds_at in (None, scale) and (
            apps is None or set(claim.measure.apps) <= set(apps))
        measured = claim.measure(artifacts) if applicable else None
        status = ("n/a" if not applicable else
                  "holds" if measured is not None
                  and claim.bound.test(measured) else "fails")
        rows.append({
            "id": claim.id, "artifact": claim.artifact, "claim": claim.claim,
            "paper": _rounded(claim.paper), "measured": _rounded(measured),
            "bound": claim.bound.text,
            "holds_at": "any" if claim.holds_at is None else claim.holds_at,
            "status": status})
    return rows
