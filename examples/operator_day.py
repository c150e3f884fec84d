"""A day at the console: operating a ViTAL cluster.

The other examples are tenant-facing; this one is the operator's view --
the Fig. 6 system-controller APIs plus the extensions an accountable
multi-tenant service needs: tenant quotas, the structured audit log,
live occupancy rendering, defragmentation via runtime relocation, and a
warm controller restart over hardware that kept running.

Run:  python examples/operator_day.py
"""

from repro.analysis.occupancy import occupancy_timeline, \
    render_occupancy
from repro.cluster.cluster import make_cluster
from repro.compiler.flow import CompilationFlow
from repro.hls.kernels import benchmark
from repro.runtime.bitstream_db import BitstreamDB
from repro.runtime.controller import SystemController
from repro.runtime.defrag import DefragmentingController
from repro.runtime.isolation import verify_isolation


def main() -> None:
    cluster = make_cluster()
    flow = CompilationFlow(fabric=cluster.partition)
    db = BitstreamDB(cluster.footprint)
    apps = {}
    for family, size in [("mlp-mnist", "S"), ("alexnet", "M"),
                         ("svhn", "L")]:
        app = flow.compile(benchmark(family, size))
        db.register(app)
        apps[size] = app
    controller = DefragmentingController(cluster)
    audit = controller.attach_audit()   # kept only once attached

    # -- quotas: the free tier gets at most 6 blocks -------------------
    controller.set_quota("free-tier", 6)
    print("quota: free-tier capped at 6 blocks")
    d = controller.try_deploy(apps["S"], 0, 1.0, tenant="free-tier")
    rejected = controller.try_deploy(apps["L"], 1, 2.0,
                                     tenant="free-tier")
    print(f"  small app admitted: {d is not None}; "
          f"large app rejected: {rejected is None}")

    # -- load the cluster, watch occupancy -----------------------------
    live = [d]
    rid = 10
    for _ in range(9):
        dep = controller.try_deploy(apps["M"], rid, float(rid))
        if dep is not None:
            live.append(dep)
        rid += 1
    print("\ncurrent occupancy ('.' free, letters = deployments):")
    print(render_occupancy(controller))

    # -- fragment, then deploy a large app: defrag migrates ------------
    for dep in live[1:4]:
        controller.release(dep, 30.0)
        live.remove(dep)
    big = controller.try_deploy(apps["L"], 99, 31.0)
    print(f"\nlarge app after fragmentation: boards "
          f"{big.placement.boards} "
          f"(migrations performed: {controller.migrations_performed})")
    verify_isolation(controller)

    # -- the audit log answers 'what happened?' ------------------------
    print(f"\naudit log: {len(audit)} entries, {audit.counts()}")
    print("last three entries:")
    for entry in audit.entries()[-3:]:
        print(f"  {entry.to_json()}")

    # -- warm restart: new controller, same silicon --------------------
    snapshot = controller.snapshot()
    restored = SystemController.restore(cluster, snapshot, db)
    print(f"\nrestarted controller sees {len(restored.running())} "
          f"running deployments, "
          f"{restored.busy_blocks()}/{restored.capacity_blocks()} "
          "blocks busy")
    verify_isolation(restored)

    print("\noccupancy timeline (from the audit log):")
    print(occupancy_timeline(audit, cluster, max_snapshots=3))


if __name__ == "__main__":
    main()
