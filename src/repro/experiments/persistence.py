"""Saving and loading experiment results as JSON.

Paper-scale cells take hours; losing them to a crashed process or wanting
to re-plot without re-running is routine. This module serializes
:class:`~repro.runtime.simulator.RunResult` and
:class:`~repro.experiments.runner.CellResult` to a stable, versioned JSON
layout and reads them back. Assignments are stored with string keys (JSON
objects) and restored to integer variables.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from ..core.exceptions import ModelError
from ..runtime.simulator import RunResult
from .runner import CellResult

#: Format version, bumped on layout changes; loaders reject the unknown.
FORMAT_VERSION = 1


def run_result_to_dict(result: RunResult) -> Dict:
    """A JSON-ready dictionary for one trial."""
    return {
        "solved": result.solved,
        "unsolvable": result.unsolvable,
        "capped": result.capped,
        "quiescent": result.quiescent,
        "cycles": result.cycles,
        "maxcck": result.maxcck,
        "total_checks": result.total_checks,
        "messages_sent": result.messages_sent,
        "generated_nogoods": result.generated_nogoods,
        "redundant_generations": result.redundant_generations,
        "assignment": {
            str(variable): value
            for variable, value in result.assignment.items()
        },
        "wall_time": result.wall_time,
        "sim_time": result.sim_time,
        "max_history": list(result.max_history),
    }


def run_result_from_dict(data: Dict) -> RunResult:
    """Rebuild one trial from its dictionary form."""
    try:
        return RunResult(
            solved=data["solved"],
            unsolvable=data["unsolvable"],
            capped=data["capped"],
            quiescent=data["quiescent"],
            cycles=data["cycles"],
            maxcck=data["maxcck"],
            total_checks=data["total_checks"],
            messages_sent=data["messages_sent"],
            generated_nogoods=data["generated_nogoods"],
            redundant_generations=data["redundant_generations"],
            assignment={
                int(variable): value
                for variable, value in data.get("assignment", {}).items()
            },
            wall_time=data.get("wall_time", 0.0),
            sim_time=data.get("sim_time", data.get("wall_time", 0.0)),
            max_history=list(data.get("max_history", [])),
        )
    except KeyError as missing:
        raise ModelError(f"trial record lacks field {missing}") from None


def cell_result_to_dict(cell: CellResult) -> Dict:
    """A JSON-ready dictionary for one table cell."""
    return {
        "format_version": FORMAT_VERSION,
        "label": cell.label,
        "n": cell.n,
        "trials": [run_result_to_dict(trial) for trial in cell.trials],
    }


def cell_result_from_dict(data: Dict) -> CellResult:
    """Rebuild one cell from its dictionary form."""
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelError(
            f"unsupported result format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    cell = CellResult(label=data["label"], n=data["n"])
    cell.trials.extend(
        run_result_from_dict(trial) for trial in data.get("trials", [])
    )
    return cell


def save_cell(cell: CellResult, path: Union[str, Path]) -> None:
    """Write one cell to *path* as JSON."""
    Path(path).write_text(
        json.dumps(cell_result_to_dict(cell), indent=2, sort_keys=True)
    )


def load_cell(path: Union[str, Path]) -> CellResult:
    """Read one cell back from *path*."""
    return cell_result_from_dict(json.loads(Path(path).read_text()))


def save_cells(cells: List[CellResult], path: Union[str, Path]) -> None:
    """Write several cells (e.g. a whole table) to one JSON file."""
    Path(path).write_text(
        json.dumps(
            {
                "format_version": FORMAT_VERSION,
                "cells": [cell_result_to_dict(cell) for cell in cells],
            },
            indent=2,
            sort_keys=True,
        )
    )


def load_cells(path: Union[str, Path]) -> List[CellResult]:
    """Read several cells back from *path*."""
    data = json.loads(Path(path).read_text())
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelError(
            f"unsupported result format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    return [cell_result_from_dict(cell) for cell in data.get("cells", [])]
