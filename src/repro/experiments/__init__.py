"""The paper's experimental harness: trials, cells, tables, Figure 2."""

from .efficiency import (
    CostLine,
    EfficiencyPoint,
    crossover_delay,
    figure_series,
    format_figure,
)
from .figure2 import Figure2Result, run_figure2
from .persistence import (
    load_cell,
    load_cells,
    save_cell,
    save_cells,
)
from .paper import (
    DEFAULT_SCALE,
    PAPER_SCALE,
    QUICK_SCALE,
    Scale,
    TABLE_SPECS,
    coloring_instances,
    instances_for,
    onesat_instances,
    run_table,
    run_table4,
    run_table_cell,
    sat_instances,
    scale_by_name,
    scale_from_environment,
)
from .reference import ALL_TABLES, FIGURE2_CROSSOVERS, TABLE4
from .asynchrony import (
    DEFAULT_NETWORKS,
    delay_response,
    run_asynchrony_table,
)
from .report import ReportResult, ShapeCheck, generate_report
from .sweep import (
    best_bound,
    sweep_problem_size,
    sweep_size_bound,
)
from .validation import (
    DelayPoint,
    ValidationResult,
    validate_delay_model,
)
from .runner import (
    CellResult,
    NetworkModel,
    network_model,
    random_initial_assignment,
    resolve_workers,
    run_cell,
    run_trial,
    trial_parameters,
)
from .tables import Table, TableRow

__all__ = [
    "ALL_TABLES",
    "CellResult",
    "CostLine",
    "DEFAULT_NETWORKS",
    "DEFAULT_SCALE",
    "DelayPoint",
    "NetworkModel",
    "ValidationResult",
    "validate_delay_model",
    "best_bound",
    "delay_response",
    "network_model",
    "run_asynchrony_table",
    "sweep_problem_size",
    "sweep_size_bound",
    "EfficiencyPoint",
    "FIGURE2_CROSSOVERS",
    "Figure2Result",
    "PAPER_SCALE",
    "QUICK_SCALE",
    "Scale",
    "TABLE4",
    "TABLE_SPECS",
    "Table",
    "TableRow",
    "coloring_instances",
    "crossover_delay",
    "figure_series",
    "format_figure",
    "generate_report",
    "instances_for",
    "load_cell",
    "load_cells",
    "onesat_instances",
    "random_initial_assignment",
    "resolve_workers",
    "run_cell",
    "run_figure2",
    "run_table",
    "ReportResult",
    "ShapeCheck",
    "run_table4",
    "run_table_cell",
    "run_trial",
    "sat_instances",
    "save_cell",
    "save_cells",
    "scale_by_name",
    "scale_from_environment",
    "trial_parameters",
]
