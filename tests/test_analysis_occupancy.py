"""Tests for the occupancy renderer."""

import pytest

from repro.analysis.occupancy import occupancy_timeline, \
    render_occupancy
from repro.runtime.controller import SystemController


class TestRenderOccupancy:
    def test_empty_cluster_all_dots(self, cluster):
        controller = SystemController(cluster)
        text = render_occupancy(controller)
        lines = text.splitlines()
        assert len(lines) == cluster.num_boards
        assert all(line.count(".") == cluster.blocks_per_board
                   for line in lines)

    def test_deployment_visible(self, cluster, compiled_medium):
        controller = SystemController(cluster)
        d = controller.try_deploy(compiled_medium, 0, 0.0)
        text = render_occupancy(controller)
        assert text.count("A") == compiled_medium.num_blocks
        controller.release(d)
        assert "A" not in render_occupancy(controller)

    def test_distinct_deployments_distinct_glyphs(self, cluster,
                                                  compiled_small):
        controller = SystemController(cluster)
        controller.try_deploy(compiled_small, 0, 0.0)
        controller.try_deploy(compiled_small, 1, 0.0)
        text = render_occupancy(controller)
        assert "A" in text and "B" in text


class TestOccupancyTimeline:
    def test_timeline_from_audit(self, cluster, compiled_small,
                                 compiled_medium):
        controller = SystemController(cluster)
        audit = controller.attach_audit()
        d1 = controller.try_deploy(compiled_small, 0, 1.0)
        d2 = controller.try_deploy(compiled_medium, 1, 2.0)
        controller.release(d1, 3.0)
        text = occupancy_timeline(audit, cluster)
        assert "t=" in text
        # the final frame shows B but not A
        final = text.split("\n\n")[-1]
        assert "B" in final and "A" not in final

    def test_empty_log(self, cluster):
        controller = SystemController(cluster)
        assert "no deployments" in occupancy_timeline(
            controller.attach_audit(), cluster)

    def test_snapshot_cap(self, cluster, compiled_small):
        controller = SystemController(cluster)
        audit = controller.attach_audit()
        live = []
        for rid in range(20):
            d = controller.try_deploy(compiled_small, rid, float(rid))
            if d is not None:
                live.append(d)
            elif live:
                controller.release(live.pop(0), float(rid))
        text = occupancy_timeline(audit, cluster, max_snapshots=5)
        assert text.count("t=") <= 5
