"""The fixed objects each workload's program needs before its first op.

`program_setup(name)` is what `setup_s` times in a fresh interpreter, and
what the workloads use in-process, so both measure the same set-up. The
`evaluate` and `cli` set-ups start from the CLI's own `Workspace`, so both
workloads evaluate the same tag family and section maps; that puts the
import of `opcalc.cli` (about 20 ms) into `evaluate`'s set-up too.
"""

from __future__ import annotations

from opcalc.operads import Associative, LittleDiscs, LittleIntervals, framed_intervals


class Evaluation:
    """The CLI workspace with its section map for every tag."""

    def __init__(self, tr) -> None:
        from opcalc.cli import Workspace
        self.ws = Workspace()
        self.tags = self.ws.space.elements
        # the 20-sample-checked psi_double_prime map the CLI builds per command
        self.sections = {x: tr.call("mapping.psi_double_prime", self.ws.section_map, x)
                         for x in self.tags}


def operads(names):
    table = {"d1": LittleIntervals, "d2": lambda: LittleDiscs(2),
             "assoc": Associative, "d1_z2": framed_intervals}
    return {name: table[name]() for name in names}


def program_setup(name: str, tr):
    if name == "normalize":
        return operads(("d1", "d2"))
    if name == "wide":
        return operads(("d1", "d2", "assoc", "d1_z2"))
    if name == "evaluate":
        return Evaluation(tr)
    if name == "cli":
        from opcalc.cli import Workspace
        return Workspace()
    raise ValueError(f"unknown workload {name!r}")
