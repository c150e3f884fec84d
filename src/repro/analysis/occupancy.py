"""Cluster-occupancy rendering (the Fig. 10 snapshots, in ASCII).

Fig. 10 of the paper shows how relocation lets applications land in
whatever blocks are free.  These helpers render the same picture from
live controller state or from an audit log: one row per board, one cell
per physical block, letters identifying the deployment occupying each
block.
"""

from __future__ import annotations

from repro.obs.stats import fragmentation_index
from repro.runtime.audit import AuditEvent, AuditLog

__all__ = ["render_occupancy", "occupancy_timeline",
           "fragmentation_index", "cluster_fragmentation"]


def cluster_fragmentation(controller) -> float:
    """Fragmentation index of a live controller's free space.

    Thin wrapper over :func:`repro.obs.stats.fragmentation_index` (the
    shared math also feeding the health timeline and the controller's
    live ``fragmentation_index`` gauge) for post-hoc analysis code that
    holds a controller rather than raw free counts.
    """
    return fragmentation_index(
        controller.resource_db.free_counts_by_board())

_GLYPHS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"


def _glyph(request_id: int) -> str:
    return _GLYPHS[request_id % len(_GLYPHS)]


def render_occupancy(controller) -> str:
    """Render the controller's current block map.

    ``.`` is a free block; letters identify deployments (stable per
    request id, recycled after 62 ids).
    """
    cluster = controller.cluster
    owner_of = {}
    for deployment in controller.running():
        for address in deployment.placement.addresses:
            owner_of[address] = deployment.request_id
    lines = []
    for board in cluster.boards:
        cells = []
        for block in range(board.num_blocks):
            rid = owner_of.get((board.board_id, block))
            cells.append("." if rid is None else _glyph(rid))
        lines.append(f"board{board.board_id} [{''.join(cells)}]")
    return "\n".join(lines)


def occupancy_timeline(audit: AuditLog, cluster,
                       max_snapshots: int = 12) -> str:
    """Replay an audit log into a sequence of occupancy snapshots.

    Block-accurate for deploys/releases recorded by the system
    controller (which logs boards and block counts); migrations update
    board assignments.  Snapshots are sampled evenly across the log.
    The log is one the controller had attached (``attach_audit``)
    before the run it replays.
    """
    # reconstruct block maps from log entries
    state: dict[tuple[int, int], int] = {}   # address -> request id
    held: dict[int, list[tuple[int, int]]] = {}
    frames: list[tuple[float, str]] = []

    def free_blocks_on(board: int) -> list[int]:
        board_obj = cluster.board(board)
        used = {blk for (b, blk) in state if b == board}
        return [i for i in range(board_obj.num_blocks)
                if i not in used]

    def render() -> str:
        lines = []
        for board in cluster.boards:
            cells = []
            for block in range(board.num_blocks):
                rid = state.get((board.board_id, block))
                cells.append("." if rid is None else _glyph(rid))
            lines.append(f"board{board.board_id} [{''.join(cells)}]")
        return "\n".join(lines)

    for entry in audit.entries():
        if entry.event is AuditEvent.DEPLOY \
                and "boards" in entry.detail:
            blocks_left = entry.detail["blocks"]
            addresses = []
            for board in entry.detail["boards"]:
                free = free_blocks_on(board)
                take = free[:blocks_left] if board \
                    == entry.detail["boards"][-1] else free
                for blk in take:
                    if blocks_left == 0:
                        break
                    addresses.append((board, blk))
                    blocks_left -= 1
            for address in addresses:
                state[address] = entry.request_id
            held[entry.request_id] = addresses
        elif entry.event is AuditEvent.RELEASE:
            for address in held.pop(entry.request_id, ()):
                state.pop(address, None)
        else:
            continue
        frames.append((entry.time_s, render()))

    if not frames:
        return "(no deployments in log)"
    step = max(1, len(frames) // max_snapshots)
    sampled = frames[::step][:max_snapshots]
    out = []
    for time_s, frame in sampled:
        out.append(f"t={time_s:8.1f}s\n{frame}")
    return "\n\n".join(out)
