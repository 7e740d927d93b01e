"""Lock-discipline rules: declared-guarded attributes, guard-map validity.

The serving layer's concurrency contract (router queue/counters, frontend
counters and sinks, program-cache counters) is enforced by convention: the
docstrings say which lock guards what, and a missed ``with self._lock``
only surfaces as a counter tear under concurrent load — the class of bug
tests are worst at.  These rules make the convention machine-checked:

* a class declares its discipline in a ``_GUARDED_BY`` class map::

      _GUARDED_BY = {"_queue": "_lock", "_submitted": "_lock"}

* :class:`LockGuardedRule` then requires every ``self._queue`` read or
  write, in every method, to sit lexically inside ``with self._lock:``.

Two escape hatches keep the check honest rather than noisy.  ``__init__``
and ``__del__`` are exempt (no concurrency before construction completes
or during teardown of an unreferenced object).  Methods whose name ends in
``_locked`` are exempt *bodies* — the suffix is the repo's documented
"caller must already hold the lock" convention — but calling such a method
from an unlocked context is on the caller, which this rule checks because
the caller's own guarded accesses (there are always some alongside) still
need the ``with``.  Code inside a nested ``def``/``lambda`` is analysed
against the locks taken *inside* it only: a closure created under a lock
may well run after the lock is released, so the enclosing ``with`` proves
nothing.
"""

from __future__ import annotations

import ast

from .rules import Rule, register

__all__ = ["LockGuardedRule", "LockMapRule", "guard_map_of"]

_EXEMPT_METHODS = frozenset(("__init__", "__del__"))


def guard_map_of(classdef):
    """The class's ``_GUARDED_BY`` dict literal as {attr: lock}, or None.

    Returns None when the class has no map; returns the (possibly
    partial) map for a literal dict, skipping non-constant entries —
    :class:`LockMapRule` reports those separately.
    """
    for statement in classdef.body:
        if not isinstance(statement, ast.Assign):
            continue
        names = [t.id for t in statement.targets if isinstance(t, ast.Name)]
        if "_GUARDED_BY" not in names:
            continue
        if not isinstance(statement.value, ast.Dict):
            return {}
        mapping = {}
        for key, value in zip(statement.value.keys, statement.value.values):
            if (isinstance(key, ast.Constant) and isinstance(key.value, str)
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)):
                mapping[key.value] = value.value
        return mapping
    return None


def _self_attr(node):
    """``attr`` when ``node`` is ``self.<attr>``, else None."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _held_locks(ctx, node, method):
    """Lock attrs of ``self`` whose ``with`` blocks enclose ``node``.

    Climbs from ``node`` toward ``method`` collecting ``with self.<lock>``
    items, stopping at the first intervening function boundary: a nested
    closure does not inherit its definition site's locks (it may run after
    they are released), only the ones taken inside it.
    """
    held = set()
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, ast.With):
            for item in ancestor.items:
                attr = _self_attr(item.context_expr)
                if attr is not None:
                    held.add(attr)
        elif isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
            break
    return held


def _first_argument(method):
    args = method.args.posonlyargs + method.args.args
    return args[0].arg if args else None


@register
class LockGuardedRule(Rule):
    id = "lock-guarded"
    category = "lock-discipline"
    description = (
        "an attribute declared in the class's _GUARDED_BY map is read or "
        "written outside a `with self.<lock>:` block (methods named "
        "*_locked and __init__/__del__ are the documented exemptions)"
    )
    hint = (
        "wrap the access in `with self.<lock>:`, or move it into a "
        "*_locked helper whose callers hold the lock"
    )

    def check(self, ctx):
        for classdef in ctx.walk():
            if not isinstance(classdef, ast.ClassDef):
                continue
            guarded = guard_map_of(classdef)
            if not guarded:
                continue
            for method in classdef.body:
                if not isinstance(method, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)):
                    continue
                if method.name in _EXEMPT_METHODS:
                    continue
                if method.name.endswith("_locked"):
                    continue
                if _first_argument(method) != "self":
                    continue  # static/class methods hold no self state
                yield from self._check_method(ctx, classdef, method, guarded)

    def _check_method(self, ctx, classdef, method, guarded):
        for node in ast.walk(method):
            attr = _self_attr(node)
            if attr is None or attr not in guarded:
                continue
            lock = guarded[attr]
            if lock not in _held_locks(ctx, node, method):
                yield self.finding(
                    ctx, node,
                    "%s.%s accesses self.%s outside `with self.%s:` "
                    "(declared guarded in _GUARDED_BY)"
                    % (classdef.name, method.name, attr, lock),
                )


@register
class LockMapRule(Rule):
    id = "lock-map"
    category = "lock-discipline"
    description = (
        "a _GUARDED_BY declaration that cannot be enforced: not a literal "
        "{str: str} dict, or naming a lock/attribute never assigned in "
        "__init__ — usually a typo that silently un-guards the attribute"
    )
    hint = (
        "keep _GUARDED_BY a literal {\"_attr\": \"_lock\"} dict whose "
        "attrs and locks are all assigned on self in __init__"
    )

    def check(self, ctx):
        for classdef in ctx.walk():
            if not isinstance(classdef, ast.ClassDef):
                continue
            declaration = self._declaration(classdef)
            if declaration is None:
                continue
            if not isinstance(declaration.value, ast.Dict):
                yield self.finding(
                    ctx, declaration,
                    "%s._GUARDED_BY is not a dict literal — the checker "
                    "cannot read it, so nothing is enforced"
                    % classdef.name,
                )
                continue
            mapping = guard_map_of(classdef)
            entries = len(declaration.value.keys)
            if len(mapping) != entries:
                yield self.finding(
                    ctx, declaration,
                    "%s._GUARDED_BY has %d non-constant entr%s the checker "
                    "cannot read" % (classdef.name, entries - len(mapping),
                                     "y" if entries - len(mapping) == 1
                                     else "ies"),
                )
            assigned = self._init_assigned(classdef)
            if assigned is None:
                continue  # no __init__ here (mixin): nothing to validate
            for attr, lock in sorted(mapping.items()):
                if lock not in assigned:
                    yield self.finding(
                        ctx, declaration,
                        "%s._GUARDED_BY guards %r with %r, but self.%s is "
                        "never assigned in __init__"
                        % (classdef.name, attr, lock, lock),
                    )
                if attr not in assigned:
                    yield self.finding(
                        ctx, declaration,
                        "%s._GUARDED_BY lists %r, but self.%s is never "
                        "assigned in __init__ (typo?)"
                        % (classdef.name, attr, attr),
                    )

    @staticmethod
    def _declaration(classdef):
        for statement in classdef.body:
            if isinstance(statement, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_GUARDED_BY"
                for t in statement.targets
            ):
                return statement
        return None

    @staticmethod
    def _init_assigned(classdef):
        """Attrs assigned on ``self`` in ``__init__``, or None without one."""
        for method in classdef.body:
            if (isinstance(method, ast.FunctionDef)
                    and method.name == "__init__"):
                assigned = set()
                for node in ast.walk(method):
                    if isinstance(node, (ast.Assign, ast.AnnAssign,
                                         ast.AugAssign)):
                        targets = (node.targets
                                   if isinstance(node, ast.Assign)
                                   else [node.target])
                        for target in targets:
                            attr = _self_attr(target)
                            if attr is not None:
                                assigned.add(attr)
                return assigned
        return None
