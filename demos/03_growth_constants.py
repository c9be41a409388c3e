#!/usr/bin/env python3
"""Growth constants: K * v^n asymptotics for the avoidance sequences.

Each avoidance series over unrestricted parts extends to a meromorphic
function on the unit disk.  Its smallest positive pole rho dictates the
exponential growth v = 1/rho of the avoider counts, with amplitude
K = -1/(rho f'(rho)); a winding-number pass around |x| = 0.7 certifies
that rho is the only zero of f inside and is simple.
"""

from comppat import (PartSet, PatternId, avoidance_sequence, estimate,
                     predict_count)

print(f"{'pattern':>8} {'rho':>12} {'v':>10} {'K':>10} {'winding':>8}")
estimates = {}
for p in PatternId:
    est = estimate(p)
    estimates[p] = est
    print(f"{p.value:>8} {est.rho:12.9f} {est.growth_v:10.6f} "
          f"{est.constant_K:10.6f} {est.winding:8d}")

# The two-term story already nails the exact counts to better than 1%.
print("\nprediction vs exact at n = 20:")
nat = PartSet.naturals()
for p in PatternId:
    exact = avoidance_sequence(p, nat, 20)[20]
    approx = predict_count(p, 20, estimates[p])
    rel = abs(approx - exact) / exact
    print(f"  {p.value:>6}: predicted {approx:12.1f}   exact {exact:8d}   "
          f"rel.err {rel:.2e}")

# The winding certificate comes from the image of a circle; each estimate
# keeps the sampled curve, for plotting.
rows = estimates[PatternId.PEAK].curve
re_f = [r[2] for r in rows]
im_f = [r[3] for r in rows]
print(f"\npeak image curve at |x| = 0.7: {len(rows)} samples, "
      f"re f in [{min(re_f):.3f}, {max(re_f):.3f}], "
      f"im f in [{min(im_f):.3f}, {max(im_f):.3f}]")
print("(winding 1 = the curve circles the origin exactly once)")
