"""Rule: sim-time purity.

Every latency in the reproduction is a sum of modelled Section-3 costs on a
:class:`~repro.vsystem.clock.SimClock`, and every Figure-3/Figure-4 count is
a deterministic function of the workload.  One ``time.time()`` or unseeded
``random.random()`` anywhere in the service stack silently turns those
reproducible numbers into scheduling noise.  This rule forbids wall-clock
reads and unseeded randomness everywhere except the simulated clock itself
(``vsystem/clock.py``).  Real time is measured from outside the program,
by ``clio_bench``.
"""

from __future__ import annotations

import ast

from repro.lint.base import FileContext, Finding, Rule

__all__ = ["SimTimePurityRule"]

#: ``time.X`` attributes that read (or block on) the host clock.
_TIME_ATTRS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "localtime",
        "gmtime",
        "ctime",
        "asctime",
        "sleep",
    }
)

#: ``datetime``/``date`` constructors that read the host clock.
_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

#: Modules whose import alone signals nondeterminism.
_FORBIDDEN_MODULES = frozenset({"secrets"})

#: The one module allowed to touch the host clock: the simulated clock's
#: own definition.
_EXEMPT_SUFFIX = "vsystem/clock.py"


class SimTimePurityRule(Rule):
    name = "sim-time"
    description = (
        "No wall-clock reads (time.time, datetime.now, ...) and no unseeded "
        "randomness outside vsystem/clock.py; determinism is what makes "
        "the Fig-3/Fig-4 counts reproducible."
    )
    paper_section = "§3 (measured cost constants), §2.1 (timestamps)"

    def check(self, ctx: FileContext) -> list[Finding]:
        if ctx.relpath.endswith(_EXEMPT_SUFFIX):
            return []
        findings: list[Finding] = []
        time_aliases: set[str] = set()
        random_aliases: set[str] = set()
        datetime_names: set[str] = set()  # names bound to datetime/date types
        random_class_names: set[str] = set()  # names bound to random.Random

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    if alias.name == "time" or alias.name.startswith("time."):
                        time_aliases.add(local)
                    elif alias.name == "random" or alias.name.startswith(
                        "random."
                    ):
                        random_aliases.add(local)
                    elif alias.name.split(".")[0] in _FORBIDDEN_MODULES:
                        findings.append(
                            ctx.finding(
                                self.name,
                                node,
                                f"import of nondeterministic module "
                                f"{alias.name!r}",
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in _TIME_ATTRS:
                            findings.append(
                                ctx.finding(
                                    self.name,
                                    node,
                                    f"wall-clock import 'from time import "
                                    f"{alias.name}'; use the SimClock",
                                )
                            )
                elif node.module == "datetime":
                    for alias in node.names:
                        if alias.name in ("datetime", "date"):
                            datetime_names.add(alias.asname or alias.name)
                elif node.module == "random":
                    for alias in node.names:
                        if alias.name == "Random":
                            random_class_names.add(alias.asname or alias.name)
                        elif alias.name == "SystemRandom":
                            findings.append(
                                ctx.finding(
                                    self.name,
                                    node,
                                    "SystemRandom is inherently unseeded; "
                                    "use random.Random(seed)",
                                )
                            )
                        else:
                            findings.append(
                                ctx.finding(
                                    self.name,
                                    node,
                                    f"module-level 'from random import "
                                    f"{alias.name}' draws from the shared "
                                    f"unseeded generator; use "
                                    f"random.Random(seed)",
                                )
                            )
                elif node.module in _FORBIDDEN_MODULES:
                    findings.append(
                        ctx.finding(
                            self.name,
                            node,
                            f"import from nondeterministic module "
                            f"{node.module!r}",
                        )
                    )

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Name
            ):
                base, attr = node.value.id, node.attr
                if base in time_aliases and attr in _TIME_ATTRS:
                    findings.append(
                        ctx.finding(
                            self.name,
                            node,
                            f"wall-clock read '{base}.{attr}'; simulated "
                            f"results must come from the SimClock",
                        )
                    )
                elif base in random_aliases and attr == "SystemRandom":
                    findings.append(
                        ctx.finding(
                            self.name,
                            node,
                            f"'{base}.SystemRandom' is inherently unseeded",
                        )
                    )
                elif (
                    base in random_aliases
                    and attr != "Random"
                    and not attr.startswith("_")
                    and isinstance(node.ctx, ast.Load)
                    and self._is_called(node, ctx.tree)
                ):
                    findings.append(
                        ctx.finding(
                            self.name,
                            node,
                            f"'{base}.{attr}' uses the shared unseeded "
                            f"generator; use random.Random(seed)",
                        )
                    )
                elif base == "os" and attr == "urandom":
                    findings.append(
                        ctx.finding(
                            self.name, node, "os.urandom is nondeterministic"
                        )
                    )

            if isinstance(node, ast.Call):
                func = node.func
                # random.Random() / Random() with no seed argument.
                unseeded = not node.args and not node.keywords
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in random_aliases
                    and func.attr == "Random"
                    and unseeded
                ):
                    findings.append(
                        ctx.finding(
                            self.name,
                            node,
                            "random.Random() without a seed is "
                            "nondeterministic; pass an explicit seed",
                        )
                    )
                elif (
                    isinstance(func, ast.Name)
                    and func.id in random_class_names
                    and unseeded
                ):
                    findings.append(
                        ctx.finding(
                            self.name,
                            node,
                            "Random() without a seed is nondeterministic; "
                            "pass an explicit seed",
                        )
                    )
                # datetime.now() / date.today() and datetime.datetime.now().
                elif isinstance(func, ast.Attribute) and func.attr in (
                    _DATETIME_ATTRS
                ):
                    base_node = func.value
                    hit = (
                        isinstance(base_node, ast.Name)
                        and base_node.id in datetime_names | {"datetime", "date"}
                        and (
                            base_node.id in datetime_names
                            or self._module_imported(ctx.tree, "datetime")
                        )
                    ) or (
                        isinstance(base_node, ast.Attribute)
                        and isinstance(base_node.value, ast.Name)
                        and base_node.value.id == "datetime"
                        and base_node.attr in ("datetime", "date")
                    )
                    if hit:
                        findings.append(
                            ctx.finding(
                                self.name,
                                node,
                                f"wall-clock read '...{func.attr}()'; entry "
                                f"timestamps come from SimClock.timestamp()",
                            )
                        )
        return findings

    @staticmethod
    def _module_imported(tree: ast.Module, module: str) -> bool:
        return any(
            isinstance(node, ast.Import)
            and any((a.asname or a.name) == module for a in node.names)
            for node in ast.walk(tree)
        )

    @staticmethod
    def _is_called(attr: ast.Attribute, tree: ast.Module) -> bool:
        """True if ``attr`` is the func of some Call in the tree (avoids
        flagging e.g. a docstring mention or ``random.Random`` references)."""
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and node.func is attr:
                return True
        return False
