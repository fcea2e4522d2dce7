#!/usr/bin/env python3
"""Seeded netlist generator of the rficd job benchmark.

Each workload is a deterministic function of (workload, seed): the same seed
gives the same jobs in the same order. In the two closed-loop workloads the
seed draws element values only; the order and mix of job types are the same
for every seed. The daemon receives only the netlist text these functions
emit.

  hb_twotone       value variants of two circuits under two-tone `.hb f1 H
                   f2 H`, H in {6, 8, 10}: the sec21 diode summing network
                   and a BJT common-emitter amplifier driven by two series
                   SIN sources. A pool of 8 Latin-hypercube value variants
                   per circuit, each at the three H, is cycled in a fixed
                   order, so repeat variants hit the context cache.
  mesh_tran_ac     RC meshes (k x k resistive grid, a capacitor per node, a
                   corner-driven source), k cycling through 32, 36, 40, 44
                   and 48 in a fixed order. Each mesh is sent
                   twice, as a `.tran` job and then as a `.ac` job with
                   identical elements, so the second can reuse the first's
                   context.
  interactive_mix  small circuits (<= ~20 devices): divider .op, RC .tran,
                   diode single-tone .hb, RC .ac + .noise, BJT bias .op and
                   MOS bias .tran. Half reuse one fixed netlist per class
                   (context hits); half carry seeded distinct values
                   (context misses).

Run standalone to write netlists for inspection:

  python3 jobbench/gen.py --workload mesh_tran_ac --seed 3 --count 4 --out d
"""
import argparse
import itertools
import os
import random
import sys

WORKLOADS = ("hb_twotone", "mesh_tran_ac", "interactive_mix")
PRIORITIES = ("high", "normal", "batch")


class Job:
    __slots__ = ("cls", "netlist", "priority")

    def __init__(self, cls, netlist, priority="normal"):
        self.cls = cls
        self.netlist = netlist
        self.priority = priority


def _spread(rng, nominal, frac):
    return nominal * rng.uniform(1.0 - frac, 1.0 + frac)


# ------------------------------------------------------------- hb_twotone

HB_F1, HB_F2 = 10e6, 13e6


def diode_sum(rng, h, spread=0.2):
    return (
        "* sec21 diode summing network, two-tone HB\n"
        f"V1 a 0 SIN(0 {_spread(rng, 0.3, spread):.6g} {HB_F1:g})\n"
        f"V2 s2 a SIN(0 {_spread(rng, 0.3, spread):.6g} {HB_F2:g}) AXIS=FAST\n"
        f"Rs s2 b {_spread(rng, 500, spread):.6g}\n"
        "D1 b 0 DM\n"
        f"RL b 0 {_spread(rng, 2000, spread):.6g}\n"
        f"CL b 0 {_spread(rng, 1e-12, spread):.6g}\n"
        ".model DM D (IS=1e-14 N=1)\n"
        ".print b\n"
        f".hb {HB_F1:g} {h} {HB_F2:g} {h}\n")


def bjt_ce(rng, h, spread=0.2):
    return (
        "* BJT common-emitter amplifier, two series SIN drives\n"
        "VCC vcc 0 DC 5\n"
        f"V1 s1 0 SIN(0 {_spread(rng, 0.02, spread):.6g} {HB_F1:g})\n"
        f"V2 s2 s1 SIN(0 {_spread(rng, 0.02, spread):.6g} {HB_F2:g}) AXIS=FAST\n"
        "RS s2 in 50\n"
        "CIN in b 10n\n"
        f"RB1 vcc b {_spread(rng, 47e3, spread / 4):.6g}\n"
        f"RB2 b 0 {_spread(rng, 10e3, spread / 4):.6g}\n"
        "Q1 c b e QN\n"
        f"RC vcc c {_spread(rng, 2e3, spread):.6g}\n"
        f"RE e 0 {_spread(rng, 500, spread):.6g}\n"
        "CE e 0 10n\n"
        f"CL c 0 {_spread(rng, 1e-12, spread):.6g}\n"
        ".model QN npn (is=1e-16 bf=100 vaf=60 cje=1p cjc=0.5p tf=0.1n)\n"
        ".print c\n"
        f".hb {HB_F1:g} {h} {HB_F2:g} {h}\n")


class LatinHypercube:
    """Seeded Latin-hypercube values for a pool of `variants` variants: the
    k-th uniform draw of variant v lies in stratum perm_k[v] of `variants`
    equal strata, perm_k a seeded permutation per draw. Every seed then
    covers each value range evenly, so the pool's total work (which the
    drive amplitudes set through the Newton and GMRES iteration counts)
    barely depends on the seed."""

    def __init__(self, rng, variants):
        self.rng = rng
        self.variants = variants
        self.units = []  # units[k][v]: the k-th draw of variant v, in [0, 1)

    def variant(self, v):
        """A stand-in for random.Random in the netlist makers, giving
        variant v's draws; each call restarts at the first draw."""
        return _VariantDraws(self, v)

    def unit(self, k, v):
        while k >= len(self.units):
            perm = list(range(self.variants))
            self.rng.shuffle(perm)
            self.units.append([(p + self.rng.random()) / self.variants
                               for p in perm])
        return self.units[k][v]


class _VariantDraws:
    def __init__(self, lhs, v):
        self.lhs, self.v, self.k = lhs, v, 0

    def uniform(self, lo, hi):
        u = self.lhs.unit(self.k, self.v)
        self.k += 1
        return lo + (hi - lo) * u


HB_VARIANTS = 8


def hb_twotone(seed):
    rng = random.Random(f"hb_twotone:{seed}")
    pool = []
    for circuit, make in (("diode2", diode_sum), ("bjt2", bjt_ce)):
        lhs = LatinHypercube(rng, HB_VARIANTS)
        for v in range(HB_VARIANTS):
            # One value draw per variant, shared by its three harmonic
            # orders: same topology key, so H=6/8/10 of a variant share a
            # context.
            for h in (6, 8, 10):
                pool.append(Job(circuit, make(lhs.variant(v), h)))
    # The seed draws the values only. The order is the same for every seed:
    # in closed loop a job's latency includes the job it queues behind, so a
    # seeded order would make each seed a different latency mix.
    order_rng = random.Random("hb_twotone:order")
    while True:
        order = list(range(len(pool)))
        order_rng.shuffle(order)
        for i in order:
            yield pool[i]


# ----------------------------------------------------------- mesh_tran_ac

def rc_mesh(rng, size, analysis):
    lines = [f"* RC mesh {size}x{size}"]
    lines.append("V1 n0_0 0 SIN(0 1 1meg)")
    for i in range(size):
        for j in range(size):
            if j + 1 < size:
                lines.append(f"Rh{i}_{j} n{i}_{j} n{i}_{j + 1} "
                             f"{_spread(rng, 100.0, 0.25):.6g}")
            if i + 1 < size:
                lines.append(f"Rv{i}_{j} n{i}_{j} n{i + 1}_{j} "
                             f"{_spread(rng, 100.0, 0.25):.6g}")
            lines.append(f"Cg{i}_{j} n{i}_{j} 0 {_spread(rng, 1e-12, 0.25):.6g}")
    lines.append(f".print n{size - 1}_{size - 1}")
    lines.append(analysis)
    return "\n".join(lines) + "\n"


MESH_SIZES = (32, 36, 40, 44, 48)


def mesh_tran_ac(seed):
    rng = random.Random(f"mesh_tran_ac:{seed}")
    order_rng = random.Random("mesh_tran_ac:order")
    while True:
        # Every size once per cycle, in an order that is the same for every
        # seed: the seed draws the element values only (see hb_twotone).
        sizes = list(MESH_SIZES)
        order_rng.shuffle(sizes)
        for size in sizes:
            state = rng.getstate()
            yield Job("mesh_tran", rc_mesh(rng, size, ".tran 0.1u 2u"))
            rng.setstate(state)  # identical elements: the context can be reused
            yield Job("mesh_ac", rc_mesh(rng, size, ".ac dec 2 1k 1meg"))


# -------------------------------------------------------- interactive_mix

def div_op(rng, s):
    return (f"* divider\nV1 in 0 DC {_spread(rng, 1.0, s):.6g}\n"
            f"R1 in out {_spread(rng, 1e3, s):.6g}\n"
            f"R2 out 0 {_spread(rng, 2e3, s):.6g}\n"
            ".print out\n.op\n")


def rc_tran(rng, s):
    return (f"* RC low-pass step\nV1 in 0 PULSE(0 1 0 1u 1u 50u 100u)\n"
            f"R1 in out {_spread(rng, 1e3, s):.6g}\n"
            f"C1 out 0 {_spread(rng, 10e-9, s):.6g}\n"
            ".print out\n.tran 1u 100u\n")


def diode_hb(rng, s):
    return (f"* diode rectifier, single-tone HB\n"
            f"V1 in 0 SIN(0 {_spread(rng, 0.8, s):.6g} 1meg)\n"
            f"R1 in a {_spread(rng, 50, s):.6g}\n"
            "D1 a out DM\n"
            f"R2 out 0 {_spread(rng, 1e3, s):.6g}\n"
            f"C1 out 0 {_spread(rng, 10e-9, s):.6g}\n"
            ".model DM D (IS=1e-14 N=1.2)\n"
            ".print out\n.hb 1meg 7\n")


def rc_ac_noise(rng, s):
    return (f"* two-pole RC filter, AC and noise\nV1 in 0 SIN(0 1 1k)\n"
            f"R1 in mid {_spread(rng, 1e3, s):.6g}\n"
            f"C1 mid 0 {_spread(rng, 100e-9, s):.6g}\n"
            f"R2 mid out {_spread(rng, 10e3, s):.6g}\n"
            f"C2 out 0 {_spread(rng, 10e-9, s):.6g}\n"
            ".print out\n.ac dec 5 10 100k\n.noise out dec 5 10 100k\n")


def bjt_bias(rng, s):
    return ("* BJT bias point\nVCC vcc 0 DC 5\n"
            f"RB1 vcc b {_spread(rng, 47e3, s):.6g}\n"
            f"RB2 b 0 {_spread(rng, 10e3, s):.6g}\n"
            "Q1 c b e QN\n"
            f"RC vcc c {_spread(rng, 2e3, s):.6g}\n"
            f"RE e 0 {_spread(rng, 500, s):.6g}\n"
            ".model QN npn (is=1e-16 bf=100 vaf=60)\n"
            ".print c b e\n.op\n")


def mos_tran(rng, s):
    return ("* NMOS common-source stage, transient\nVDD vdd 0 DC 3\n"
            f"VG g 0 SIN({_spread(rng, 1.2, s / 4):.6g} 0.1 100k)\n"
            f"RD vdd d {_spread(rng, 5e3, s):.6g}\n"
            "M1 d g 0 MN\n"
            f"CL d 0 {_spread(rng, 1e-12, s):.6g}\n"
            ".model MN nmos (vto=0.7 kp=2e-4 lambda=0.02 cgs=10f cgd=5f)\n"
            ".print d\n.tran 0.2u 20u\n")


INTERACTIVE_CLASSES = (("div_op", div_op), ("rc_tran", rc_tran),
                       ("diode_hb", diode_hb), ("rc_ac_noise", rc_ac_noise),
                       ("bjt_bias", bjt_bias), ("mos_tran", mos_tran))


def interactive_mix(seed):
    rng = random.Random(f"interactive_mix:{seed}")
    # The reused netlists are the same for every seed: half of each class's
    # jobs run one of them, so a seeded draw would set half the class's cost
    # (a diode HB variant can take twice as long as another).
    fixed_rng = random.Random("interactive_mix:fixed")
    fixed = [Job(cls, make(fixed_rng, 0.2)) for cls, make in INTERACTIVE_CLASSES]
    priorities = itertools.cycle(PRIORITIES)
    while True:
        k = rng.randrange(len(INTERACTIVE_CLASSES))
        if rng.random() < 0.5:
            netlist = fixed[k].netlist
        else:
            netlist = INTERACTIVE_CLASSES[k][1](rng, 0.3)
        yield Job(INTERACTIVE_CLASSES[k][0], netlist, next(priorities))


GENERATORS = {"hb_twotone": hb_twotone, "mesh_tran_ac": mesh_tran_ac,
              "interactive_mix": interactive_mix}


def jobs(workload, seed):
    """Infinite, deterministic job stream of `workload` for `seed`."""
    return GENERATORS[workload](seed)


def warmup_jobs(workload):
    """One job per job class, with values outside every seeded stream, so
    warm-up never pre-fills the context cache for measured jobs."""
    rng = random.Random(f"warmup:{workload}")
    if workload == "hb_twotone":
        return [Job("diode2", diode_sum(rng, 6, 0.05)),
                Job("bjt2", bjt_ce(rng, 6, 0.05))]
    if workload == "mesh_tran_ac":
        state = rng.getstate()
        tran = Job("mesh_tran", rc_mesh(rng, 32, ".tran 0.1u 2u"))
        rng.setstate(state)
        return [tran, Job("mesh_ac", rc_mesh(rng, 32, ".ac dec 2 1k 1meg"))]
    return [Job(cls, make(rng, 0.05)) for cls, make in INTERACTIVE_CLASSES]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--count", type=int, default=8)
    ap.add_argument("--out", required=True, help="directory for .cir files")
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    for i, job in enumerate(itertools.islice(jobs(args.workload, args.seed),
                                             args.count)):
        path = os.path.join(args.out, f"{i:04d}_{job.cls}.cir")
        with open(path, "w") as f:
            f.write(job.netlist)
    return 0


if __name__ == "__main__":
    sys.exit(main())
