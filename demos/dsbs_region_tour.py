"""Tour of the doubly symmetric binary source under Hamming distortion.

Walks the (D1, D2) square, printing the closed-form region tag, the joint
rate-distortion value, and the numeric solver's answer side by side, then
shows the common-rate bracket in the open region.

Run: python3 demos/dsbs_region_tour.py
"""

from witl.closed_form import DsbsParams, dsbs_c3, dsbs_joint_rd, dsbs_region
from witl.common_info import bsc_broadcast_source
from witl.rd import DistortionSpec, ba_joint_rd

A1 = 0.1


def main():
    par = DsbsParams.from_a1(A1)
    p = bsc_broadcast_source(0.5, A1, 2)  # the DSBS: a fair bit through two BSC(a1)
    spec = DistortionSpec.hamming((2, 2))
    print(f"DSBS with crossover a1 = {A1} (flip probability a0 = {par.a0:.4f})\n")

    probes = [(0.05, 0.05), (0.12, 0.06), (0.3, 0.3), (0.45, 0.1), (0.6, 0.6)]
    print(f"{'D1':>5} {'D2':>5} {'region':>7} {'R_joint':>10} {'numeric':>10} {'diff':>9}")
    for d1, d2 in probes:
        region = dsbs_region(par, d1, d2)
        closed = dsbs_joint_rd(par, d1, d2)
        numeric = ba_joint_rd(p, spec, (d1, d2)).rate
        print(f"{d1:5.2f} {d2:5.2f} {region.name:>7} {closed:10.6f} "
              f"{numeric:10.6f} {numeric - closed:9.1e}")

    print("\nSmallest common rate C3(D1, D2):")
    for d1, d2 in probes:
        lo, hi = dsbs_c3(par, d1, d2)
        tag = dsbs_region(par, d1, d2).name
        if lo == hi:
            print(f"  ({d1}, {d2})  {tag}: point value {lo:.6f} bits")
        else:
            print(f"  ({d1}, {d2})  {tag}: open bracket [{lo:.6f}, {hi:.6f}] bits")


if __name__ == "__main__":
    main()
