"""Integrated flow: orchestrator, six-stage GUI, command-line tools.

Each name loads its submodule on first access, so importing
:mod:`repro.flow.cli` does not load the ten tools the flow chains.
"""

import importlib

#: Public name -> the submodule that defines it.
_SOURCES = {
    **dict.fromkeys(("DesignFlow", "FlowOptions", "FlowResult"), "flow"),
    **dict.fromkeys(("FlowGui", "render_html", "render_text"), "gui"),
}

__all__ = sorted(_SOURCES)


def __getattr__(name):
    source = _SOURCES.get(name)
    if source is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{source}", __name__), name)
