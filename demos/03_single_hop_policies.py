"""Single-hop (full mesh) comparison of the two sharing policies.

Send-mine-only needs up to M-1 encounters to hit the limit; forwarding gets
there in far fewer because partners relay everything they picked up earlier,
at the price of more redundant bits on the air.
"""

from oppknow import (
    JointDistribution,
    Policy,
    SynthConfig,
    focal_schedule,
    full_mesh,
    inject_unique_tips,
    round_robin_schedule,
    run,
    steps_to_limit,
    synthesize_traces,
)

M = 12
table = inject_unique_tips(synthesize_traces(SynthConfig(M, 10, 5000, 0.3, 3)))
dist = JointDistribution.from_samples(table)
mesh = full_mesh(M)

# --- deterministic focal walk: node 0 meets 1, 2, ..., M-1 in turn ---------

walk = focal_schedule(mesh, 0)
records = run(dist, mesh, walk, Policy.SEND_MINE_ONLY)
own = [r for r in records if r.node == 0]
print(f"focal node 0 under send-mine-only (limit {own[0].kl_bits:.3f} bits):")
for r in own:
    bar = "#" * int(40 * r.kg_bits / r.kl_bits)
    print(f"  after encounter {r.round_index + 1:2d}: {r.kg_bits:7.3f} bits |{bar}")
print(f"  reached the limit in {steps_to_limit(records, 0, walk)} encounters "
      f"(worst case is M-1 = {M - 1})")
print()

# --- everyone at once: random matchings, both policies ---------------------

schedule = round_robin_schedule(mesh, rounds=80, seed=77)
print(f"{'node':>4} {'limit':>8} {'steps smo':>10} {'steps fmpo':>11} "
      f"{'overhead smo':>13} {'overhead fmpo':>14}")
rec_smo = run(dist, mesh, schedule, Policy.SEND_MINE_ONLY)
rec_fmpo = run(dist, mesh, schedule, Policy.FORWARD_MINE_PLUS_OTHERS)
for node in range(M):
    final_smo = [r for r in rec_smo if r.node == node][-1]
    final_fmpo = [r for r in rec_fmpo if r.node == node][-1]
    print(f"{node:>4} {final_smo.kl_bits:>8.3f} "
          f"{str(steps_to_limit(rec_smo, node, schedule)):>10} "
          f"{str(steps_to_limit(rec_fmpo, node, schedule)):>11} "
          f"{final_smo.oh_cum_bits:>13.1f} {final_fmpo.oh_cum_bits:>14.1f}")

print()
print("forwarding converges in a handful of encounters but ships more")
print("redundant bits per encounter; the trade-off is the whole story.")
