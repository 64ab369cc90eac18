"""The customization rule engine.

This is the paper's §3.3 mechanism: each registered
:class:`~repro.core.customization.CustomizationDirective` is expanded into
ECA rules on the generic rule manager —

* a **schema presentation rule** triggered by ``Get_Schema`` (the §4 rule
  R1), which decides the Schema window's display mode and, when the mode
  is ``null``, cascades ``Get_Class`` for the directive's classes;
* one **class presentation rule** per class clause, triggered by
  ``Get_Class`` (the §4 rule R2);
* one **instance presentation rule** per customized attribute, triggered
  by ``Get_Value`` (§3.4: "The attributes in the instances clause are
  associated with instance presentation rules").

Rule *conditions* check the event's interaction context against the
directive's pattern — "Condition does not check a database state, but a
user's working environment" — and rule *priorities* are the pattern's
specificity, so "only one rule is selected for execution — the one which
has the highest priority ... the most specific rule". Rules are
partitioned into per-target groups (one group per interface object being
customized) running under the ``HIGHEST_PRIORITY`` selection policy;
equal-specificity conflicts raise, as the paper's execution model admits
no ambiguity.

Decisions are collected per event for the dispatcher/builder to consume,
and every decision is traceable to its rule (explanation mode).
"""

from __future__ import annotations

from typing import Any

from .. import obs
from ..active.event_bus import EXPLORATORY_KINDS, Event, EventBus, EventKind
from ..active.rule_manager import Rule, RuleManager, SelectionPolicy
from ..errors import CustomizationError, RuleError
from ..geodb.catalog import KIND_CUSTOMIZATION, MetadataCatalog
from .context import Context
from .customization import (
    AttributeCustomization,
    ClassCustomization,
    CustomizationDecision,
    CustomizationDirective,
)

GROUP_PREFIX = "customization"


class CustomizationEngine:
    """Expands directives into rules and collects per-event decisions.

    One engine may serve many sessions at once (the shared-kernel
    architecture): decisions are recorded under the originating event's
    ``session_id``, and :meth:`decisions_for` can be asked to return only
    the decisions belonging to one session.

    With ``selection_cache`` (the default, only effective when the engine
    builds its own manager), rule selection for the exploratory ``Get_*``
    events is memoized on ``(event kind, subject, schema/class payload,
    context)``. Customization rule conditions depend on exactly those
    inputs (§3.3: "Condition does not check a database state, but a
    user's working environment"), so the memoization is exact; a
    generation counter bumped by every directive install/remove/toggle
    keeps cached selections from ever going stale. Callers that define
    *extra* rules directly on ``self.manager`` must keep their conditions
    within those inputs (or build the engine with
    ``selection_cache=False``).
    """

    def __init__(self, bus: EventBus, manager: RuleManager | None = None,
                 catalog: MetadataCatalog | None = None,
                 selection_cache: bool = True):
        self.bus = bus
        if manager is None:
            manager = RuleManager(
                bus,
                cache_key=self._selection_cache_key if selection_cache
                else None,
            )
        self.manager = manager
        self.catalog = catalog
        self._directives: dict[str, CustomizationDirective] = {}
        #: event_id -> decisions recorded while handling that event
        self._decisions: dict[int, list[CustomizationDecision]] = {}
        #: event_id -> session that raised the event (parallel ring)
        self._decision_sessions: dict[int, str | None] = {}
        self._decision_window = 64  # retained events

    @staticmethod
    def _selection_cache_key(event: Event):
        """Cache key for exploratory events, or None (uncacheable).

        Everything a customization rule's condition reads is in the key:
        kind, subject, the payload's schema/class, and the (hashable,
        frozen) interaction context. ``session_id`` is deliberately NOT
        part of the key — two sessions in the same context share cached
        selections, which is the point of the shared kernel.
        """
        if event.kind not in EXPLORATORY_KINDS:
            return None
        context = event.context
        if context is not None and not isinstance(context, Context):
            return None  # opaque contexts: fall back to the full scan
        return (
            event.kind,
            event.subject,
            event.payload.get("schema"),
            event.payload.get("class"),
            context,
        )

    # ------------------------------------------------------------------
    # Directive registration (the paper's "compiler output" entry point)
    # ------------------------------------------------------------------

    def register_directive(self, directive: CustomizationDirective,
                           persist: bool = True) -> list[Rule]:
        """Expand a directive into rules; returns the created rules.

        Registration is transactional: if any rule conflicts, previously
        created rules of this directive are rolled back.
        """
        if directive.name in self._directives:
            raise CustomizationError(
                f"directive {directive.name!r} is already registered"
            )
        created: list[Rule] = []
        try:
            created.append(self._schema_rule(directive))
            for clause in directive.classes:
                created.append(self._class_rule(directive, clause))
                for attr in clause.attributes:
                    created.append(self._instance_rule(directive, clause, attr))
        except RuleError:
            for rule in created:
                self.manager.remove_rule(rule.name)
            raise
        self._directives[directive.name] = directive
        rec = obs.RECORDER
        if rec.enabled:
            rec.inc("customization.directives_registered")
        if persist and self.catalog is not None:
            self.catalog.put(KIND_CUSTOMIZATION, directive.name,
                             directive.describe())
        return created

    def unregister_directive(self, name: str) -> None:
        if name not in self._directives:
            raise CustomizationError(f"no directive named {name!r}")
        prefix = f"{name}::"
        for rule in list(self.manager.rules()):
            if rule.name.startswith(prefix):
                self.manager.remove_rule(rule.name)
        del self._directives[name]
        if self.catalog is not None and self.catalog.has(KIND_CUSTOMIZATION, name):
            self.catalog.delete(KIND_CUSTOMIZATION, name)

    def directives(self) -> list[CustomizationDirective]:
        return list(self._directives.values())

    def set_directive_enabled(self, name: str, enabled: bool) -> int:
        """Enable/disable every rule of a directive without removing it.

        Lets an application designer stage or A/B a customization; returns
        the number of rules toggled.
        """
        if name not in self._directives:
            raise CustomizationError(f"no directive named {name!r}")
        prefix = f"{name}::"
        toggled = 0
        for rule in self.manager.rules():
            if rule.name.startswith(prefix):
                self.manager.set_enabled(rule.name, enabled)
                toggled += 1
        return toggled

    def load_from_catalog(self) -> int:
        """Re-register every directive persisted in the database."""
        if self.catalog is None:
            raise CustomizationError("engine was built without a catalog")
        loaded = 0
        for name, desc in self.catalog.documents(KIND_CUSTOMIZATION):
            if name in self._directives:
                continue
            self.register_directive(
                CustomizationDirective.from_description(desc), persist=False
            )
            loaded += 1
        return loaded

    # ------------------------------------------------------------------
    # Rule generation
    # ------------------------------------------------------------------

    def _group(self, level: str, target: str) -> str:
        group = f"{GROUP_PREFIX}::{level}::{target}"
        self.manager.set_policy(group, SelectionPolicy.HIGHEST_PRIORITY)
        return group

    def _condition(self, directive: CustomizationDirective, subject: str,
                   payload_class: str | None = None):
        pattern = directive.pattern
        schema_name = directive.schema_name

        def condition(event: Event) -> bool:
            if payload_class is None:
                if event.subject != subject:
                    return False
            else:
                if event.payload.get("class") != payload_class:
                    return False
            # class/instance events carry their schema: a directive only
            # customizes its own schema (same-named classes elsewhere in a
            # multi-schema database must not cross-fire)
            event_schema = event.payload.get("schema")
            if event_schema is not None and event_schema != schema_name:
                return False
            context = event.context
            if context is not None and not isinstance(context, Context):
                return False
            return pattern.matches(context)

        return condition

    def _schema_rule(self, directive: CustomizationDirective) -> Rule:
        cascade = (
            tuple(directive.class_names())
            if directive.schema_display == "null"
            else ()
        )

        def action(event: Event, _manager) -> CustomizationDecision:
            decision = CustomizationDecision(
                kind="schema",
                rule_name=f"{directive.name}::schema",
                directive_name=directive.name,
                schema_display=directive.schema_display,
                cascade_classes=cascade,
            )
            self._record(event, decision)
            return decision

        return self.manager.define(
            f"{directive.name}::schema",
            events=[EventKind.GET_SCHEMA],
            condition=self._condition(directive, directive.schema_name),
            action=action,
            priority=directive.pattern.specificity(),
            group=self._group("schema", directive.schema_name),
            doc=(
                f"On Get_Schema If {directive.pattern.describe()} Then "
                f"Build Window(Schema, {directive.schema_name}, "
                f"{directive.schema_display})"
                + (f"; Get_Class({', '.join(cascade)})" if cascade else "")
            ),
        )

    def _class_rule(self, directive: CustomizationDirective,
                    clause: ClassCustomization) -> Rule:
        def action(event: Event, _manager) -> CustomizationDecision:
            decision = CustomizationDecision(
                kind="class",
                rule_name=f"{directive.name}::class::{clause.class_name}",
                directive_name=directive.name,
                class_clause=clause,
            )
            self._record(event, decision)
            return decision

        return self.manager.define(
            f"{directive.name}::class::{clause.class_name}",
            events=[EventKind.GET_CLASS],
            condition=self._condition(directive, clause.class_name),
            action=action,
            priority=directive.pattern.specificity(),
            group=self._group("class", clause.class_name),
            doc=(
                f"On Get_Class If {directive.pattern.describe()} Then "
                f"Build Window(Class set, {clause.class_name}, "
                f"{clause.control_widget or 'default'}, "
                f"{clause.presentation_format or 'default'})"
            ),
        )

    def _instance_rule(self, directive: CustomizationDirective,
                       clause: ClassCustomization,
                       attr: AttributeCustomization) -> Rule:
        # Instance events carry the oid as subject; the class arrives in
        # the payload, which is what the condition keys on.
        def action(event: Event, _manager) -> CustomizationDecision:
            decision = CustomizationDecision(
                kind="instance",
                rule_name=(
                    f"{directive.name}::attr::{clause.class_name}."
                    f"{attr.attr_name}"
                ),
                directive_name=directive.name,
                class_clause=ClassCustomization(
                    class_name=clause.class_name, attributes=(attr,)
                ),
            )
            self._record(event, decision)
            return decision

        return self.manager.define(
            f"{directive.name}::attr::{clause.class_name}.{attr.attr_name}",
            events=[EventKind.GET_VALUE],
            condition=self._condition(
                directive, "", payload_class=clause.class_name
            ),
            action=action,
            priority=directive.pattern.specificity(),
            group=self._group(
                "attr", f"{clause.class_name}.{attr.attr_name}"
            ),
            doc=(
                f"On Get_Value If {directive.pattern.describe()} Then "
                f"display {clause.class_name}.{attr.attr_name} as "
                f"{attr.format_name}"
            ),
        )

    # ------------------------------------------------------------------
    # Decision collection
    # ------------------------------------------------------------------

    def _record(self, event: Event, decision: CustomizationDecision) -> None:
        rec = obs.RECORDER
        if rec.enabled:
            rec.inc("customization.decisions", kind=decision.kind)
        self._decisions.setdefault(event.event_id, []).append(decision)
        self._decision_sessions[event.event_id] = event.session_id
        while len(self._decisions) > self._decision_window:
            evicted = next(iter(self._decisions))
            self._decisions.pop(evicted)
            self._decision_sessions.pop(evicted, None)

    def decisions_for(self, event_id: int, session_id: str | None = None
                      ) -> list[CustomizationDecision]:
        """Decisions recorded for one event.

        With ``session_id``, the lookup is session-keyed: decisions are
        returned only when the event was raised by that session, so one
        session can never consume another session's decisions (event ids
        are global across the shared bus).
        """
        if session_id is not None and \
                self._decision_sessions.get(event_id) != session_id:
            return []
        return list(self._decisions.get(event_id, ()))

    def session_decisions(self, session_id: str | None
                          ) -> list[CustomizationDecision]:
        """Every retained decision recorded on behalf of one session."""
        return [
            decision
            for event_id, decisions in self._decisions.items()
            if self._decision_sessions.get(event_id) == session_id
            for decision in decisions
        ]

    def schema_decision(self, event_id: int, session_id: str | None = None
                        ) -> CustomizationDecision | None:
        for decision in self.decisions_for(event_id, session_id):
            if decision.kind == "schema":
                return decision
        return None

    def class_decision(self, event_id: int, session_id: str | None = None
                       ) -> CustomizationDecision | None:
        for decision in self.decisions_for(event_id, session_id):
            if decision.kind == "class":
                return decision
        return None

    def attribute_decisions(
        self, event_id: int, session_id: str | None = None
    ) -> dict[str, AttributeCustomization]:
        """attr name -> customization, merged over the instance decisions."""
        out: dict[str, AttributeCustomization] = {}
        for decision in self.decisions_for(event_id, session_id):
            if decision.kind != "instance" or decision.class_clause is None:
                continue
            for attr in decision.class_clause.attributes:
                out[attr.attr_name] = attr
        return out

    # ------------------------------------------------------------------
    # Direct lookup (no event): used by the update-refresh extension
    # ------------------------------------------------------------------

    def active_class_clause(self, class_name: str,
                            context: Context | None) -> ClassCustomization | None:
        """The class clause the most specific matching directive gives.

        Mirrors rule selection, but answered synchronously against the
        directive registry — the dispatcher's refresh path (triggered by
        system-side UPDATE events, which carry no interaction context)
        uses this to find the ``on update`` customization for the window's
        own context.
        """
        best: tuple[int, str, ClassCustomization] | None = None
        for directive in self._directives.values():
            clause = directive.class_clause(class_name)
            if clause is None or not directive.pattern.matches(context):
                continue
            key = (directive.pattern.specificity(), directive.name)
            if best is None or key[0] > best[0]:
                best = (key[0], key[1], clause)
            elif key[0] == best[0] and key[1] != best[1]:
                raise RuleError(
                    f"ambiguous class customization for {class_name!r}: "
                    f"directives {best[1]!r} and {key[1]!r} share "
                    f"specificity {key[0]}"
                )
        return best[2] if best else None

    # ------------------------------------------------------------------
    # Explanation mode
    # ------------------------------------------------------------------

    def explain(self, event_id: int) -> str:
        """Why the interface looks the way it does for one event."""
        decisions = self.decisions_for(event_id)
        if not decisions:
            return (
                "no customization rule fired; the generic (default) "
                "presentation was used"
            )
        lines = []
        for decision in decisions:
            rule = self.manager.get_rule(decision.rule_name)
            lines.append(f"{decision.describe()}\n    rule: {rule.doc}")
        return "\n".join(lines)

    def stats(self) -> dict[str, Any]:
        return {
            "directives": len(self._directives),
            "rules": len(self.manager.rules()),
            "firings": len(self.manager.trace),
            "generation": self.manager.generation,
            "cached_selections": len(self.manager._selection_cache),
        }
