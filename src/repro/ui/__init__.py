"""GIS user interface layer: interaction driver and window inspection."""

from .interaction import (
    InteractionScript,
    Step,
    StepResult,
    paper_walkthrough_script,
    random_browse_script,
)
from .windows import (
    WindowSummary,
    class_window_areas,
    displayed_attribute_names,
    instance_attribute_panels,
    map_symbols,
    summarize_window,
)

__all__ = [
    "InteractionScript", "Step", "StepResult",
    "paper_walkthrough_script", "random_browse_script",
    "WindowSummary", "summarize_window", "class_window_areas",
    "instance_attribute_panels", "displayed_attribute_names", "map_symbols",
]
