"""Full-reproduction orchestrator.

Runs every table/figure reproduction at a chosen scale and collects the
rendered reports into one Markdown document (plus optional JSON export
of the raw data) -- the "regenerate the whole evaluation section"
button.
"""

from __future__ import annotations

import pathlib
import time
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.experiments import figures

__all__ = ["ALL_EXPERIMENTS", "run_all", "write_summary"]

PathLike = Union[str, pathlib.Path]

#: Experiment id -> (callable, takes_scale).
ALL_EXPERIMENTS: Dict[str, Tuple[Callable, bool]] = {
    "table2": (figures.table2_data, False),
    "fig3": (figures.fig3_data, False),
    "fig4": (figures.fig4_data, True),
    "fig5": (figures.fig5_data, True),
    "fig6": (figures.fig6_data, True),
    "fig7": (figures.fig7_data, True),
    "fig8": (figures.fig8_data, True),
    "fig9": (figures.fig9_data, True),
    "fig10": (figures.fig10_data, True),
    "fig11": (figures.fig11_data, True),
    "fig12": (figures.fig12_data, True),
    "fig13": (figures.fig13_data, True),
    "fig14": (figures.fig14_data, True),
    "diversity": (figures.diversity_data, True),
    "tail_effects": (figures.tail_effects_data, True),
}


def run_all(
    scale: str = "tiny",
    only: Optional[List[str]] = None,
    progress: Optional[Callable[[str, float], None]] = None,
) -> Dict[str, Dict]:
    """Run the selected experiments; returns ``{id: figure data}``.

    ``progress(experiment_id, seconds)`` is called after each one.
    """
    selected = list(ALL_EXPERIMENTS) if only is None else list(only)
    unknown = [x for x in selected if x not in ALL_EXPERIMENTS]
    if unknown:
        raise ValueError(f"unknown experiments: {unknown} (known: {sorted(ALL_EXPERIMENTS)})")
    results: Dict[str, Dict] = {}
    for exp_id in selected:
        func, takes_scale = ALL_EXPERIMENTS[exp_id]
        start = time.perf_counter()
        results[exp_id] = func(scale) if takes_scale else func()
        if progress is not None:
            progress(exp_id, time.perf_counter() - start)
    return results


def write_summary(
    results: Dict[str, Dict],
    path: PathLike,
    scale: str = "tiny",
) -> None:
    """Write the collected reports to one Markdown file."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        "# Reproduction summary",
        "",
        f"Scale preset: `{scale}` (see DESIGN.md §4 for the scale substitution).",
        "",
    ]
    for exp_id, data in results.items():
        lines.append(f"## {exp_id}")
        lines.append("")
        lines.append("```")
        lines.append(data["report"])
        lines.append("```")
        lines.append("")
    path.write_text("\n".join(lines))
