"""Run configuration shared by the CLI subcommands."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class RunConfig:
    seed: int = 0
    max_composite_degree: int = 4096
    cloud_count: int = 4000
    depth: int = 40

    def validate(self):
        if self.max_composite_degree < 2:
            raise ValueError("max_composite_degree must be at least 2")
        if self.cloud_count < 0 or self.depth < 1:
            raise ValueError("cloud_count/depth out of range")
        return self
