"""The benchmark's workloads: which paper workflow each one runs, and how.

Kept free of ``repro`` imports so the orchestrator (``run.py``) stays a
plain process launcher; only the pass process (``passrun.py``) imports the
program.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The four paper benchmarks every grid covers (``repro.workloads.BENCHMARKS``).
BENCHMARKS = ("barnes", "fft", "lu", "water")


@dataclass(frozen=True)
class Workload:
    name: str
    #: The ``repro sweep`` experiment one pass runs.
    experiment: str
    scale: str
    points: int
    jobs: int = 1
    #: ``repro sweep --trace``: capture once, replay every point.
    trace: bool = False

    @property
    def grid(self) -> str:
        """Key of this workload's pins in ``reference.json``."""
        return f"{self.experiment}-{self.scale}"

    def sweep_argv(self, seed: int, out: str, jobs: "int | None" = None) -> list[str]:
        """The ``repro`` CLI arguments of one pass."""
        argv = ["sweep", self.experiment, "--scale", self.scale,
                "--seed", str(seed), "--out", out]
        jobs = jobs or self.jobs
        if jobs > 1:
            argv += ["--jobs", str(jobs)]
        if self.trace:
            argv.append("--trace")
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig8-cold", "figure8", "tiny", points=88),
        Workload("table3-trace-j2", "table3", "tiny", points=28, jobs=2, trace=True),
    )
}
