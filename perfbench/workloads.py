"""The benchmark's workloads: fixed lists of ``octomono`` CLI commands.

Each workload is a closed loop: one command runs at a time, and a cycle
runs every command of the workload once.  Every command belongs to one
of two passes, and each pass reports one throughput: MC samples per
second at ``--threads 1`` and at ``--threads 2`` for the Monte Carlo
workloads, trig points and algebra trials per second for ``suites``.

Commands in the same ``group`` must print the same report apart from
``elapsed_ms``; for the MC workloads a group is one experiment run at
both thread counts.
"""

from __future__ import annotations

from dataclasses import dataclass

MC_SAMPLES = 1_000_000
TRIG_POINTS = 1000
ALGEBRA_TRIALS = 50_000
CHUNK = 131_072  # octomono.quadrature.McConfig().chunk
SUBCOMMANDS = ("reproduce", "trig", "algebra")


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]  # CLI arguments after ``--seed <n>``
    primary: bool  # which pass the command's items count towards
    items: int
    group: str
    threads: int = 1

    @property
    def subcommand(self) -> str:
        return next(a for a in self.argv if a in SUBCOMMANDS)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[Command, ...]
    # Untimed runs of the same code before measuring, also timed in fresh
    # interpreters as set-up.  The MC warm-ups run one full chunk at one
    # thread, which reaches the working set a full run at one thread peaks at.
    warmup: tuple[Command, ...]
    # what the two pass throughputs are called in the human-readable summary
    primary_name: str
    secondary_name: str


def _mc(name: str, why: str, experiments: tuple[str, ...], flags: tuple[str, ...]) -> Workload:
    commands = tuple(
        Command(
            (*flags, "--threads", str(t), "reproduce", "--experiment", exp,
             "--samples", str(MC_SAMPLES)),
            primary=(t == 1),
            items=MC_SAMPLES,
            group=exp,
            threads=t,
        )
        for exp in experiments
        for t in (1, 2)
    )
    warmup = tuple(
        Command(
            (*flags, "reproduce", "--experiment", exp, "--samples", str(CHUNK)),
            True, 0, "warmup",
        )
        for exp in experiments
    )
    return Workload(name, why, commands, warmup, "samples_per_s", "samples_per_s_t2")


WORKLOADS = {
    w.name: w
    for w in (
        _mc(
            "mc_ball",
            "Ball Monte Carlo at 1e6 samples, threads 1 and 2: about 80% of the time is "
            "mul_many on 131,072-row float64 chunks, so a product-kernel change shows here.",
            ("cauchy_ball", "bergman_ball"),
            (),
        ),
        _mc(
            "mc_strip",
            "Strip Monte Carlo at radius 2, threads 1 and 2: lattice sums take 26-28% and the "
            "product 42%, so a lattice-sum change shows here and not on mc_ball.",
            ("szego_strip", "bergman_strip"),
            ("--radius", "2"),
        ),
        Workload(
            "suites",
            "trig and algebra suites, no quadrature: 79,000 one-point lattice sums, small "
            "mul_many calls and longdouble batches, so per-call and extended-precision costs show.",
            (
                Command(("trig", "--points", str(TRIG_POINTS)), True, TRIG_POINTS, "trig"),
                Command(
                    ("algebra", "--trials", str(ALGEBRA_TRIALS)), False, ALGEBRA_TRIALS, "algebra"
                ),
            ),
            (
                Command(("trig", "--points", "2"), True, 0, "warmup"),
                Command(("algebra", "--trials", "10000"), False, 0, "warmup"),
            ),
            "trig_points_per_s",
            "algebra_trials_per_s",
        ),
    )
}
