"""Resource rules: files, mmaps, sockets and pools must close on all paths.

The serving frontends lean on OS resources — listening and client
sockets, server threads, state files — and the ensemble fits on thread
pools.  A resource bound to a local variable without a ``with``
or a ``finally: ...close()`` leaks on the first exception between
creation and cleanup; on a long-lived server that is an fd leak with a
countdown.  The rule is deliberately structural (no data-flow solver):
a resource-constructor result bound to a local name must visibly reach
one of the sanctioned custody patterns, and anything else is a finding.
"""

from __future__ import annotations

import ast

from .rules import Rule, register
from .walker import dotted_name

__all__ = ["ResourceCloseRule"]

#: Calls that hand back an OS-backed resource needing explicit cleanup.
#: Matched on the full dotted name, or (for the executor classes, which
#: are conventionally imported bare) the trailing segment.
_RESOURCE_CALLS = frozenset((
    "open", "os.fdopen", "io.open", "mmap.mmap",
    "socket.socket", "socket.create_connection",
))
_RESOURCE_LEAF_CALLS = frozenset((
    "ThreadPoolExecutor", "ProcessPoolExecutor",
))

#: Method calls that count as releasing a resource.
_RELEASERS = frozenset(("close", "shutdown", "terminate", "stop", "join"))


def _resource_call_in(node):
    """A resource-constructor Call inside ``node``'s value expression.

    Looks through conditional expressions and boolean short-circuits so
    ``f = open(p) if p else sys.stdout`` is still recognised.
    """
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, ast.Call):
            name = dotted_name(current.func)
            if name in _RESOURCE_CALLS:
                return current
            if (name is not None
                    and name.rsplit(".", 1)[-1] in _RESOURCE_LEAF_CALLS):
                return current
        if isinstance(current, ast.IfExp):
            stack.extend((current.body, current.orelse))
        elif isinstance(current, ast.BoolOp):
            stack.extend(current.values)
    return None


def _released_in_finally(function, name):
    """``name.close()``-style call inside any finally block of ``function``."""
    for node in ast.walk(function):
        if not isinstance(node, ast.Try) or not node.finalbody:
            continue
        for statement in node.finalbody:
            for sub in ast.walk(statement):
                if (isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in _RELEASERS
                        and isinstance(sub.func.value, ast.Name)
                        and sub.func.value.id == name):
                    return True
    return False


def _custody_transferred(function, name, creation):
    """Whether ``name`` visibly leaves the function's responsibility.

    Returning/yielding it, storing it on an object attribute or into a
    container, or re-entering it as a ``with`` context all hand cleanup
    to someone with a destruction path.
    """
    for node in ast.walk(function):
        if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            value = node.value
            if value is not None and _mentions(value, name):
                return True
        elif isinstance(node, ast.Assign) and node is not creation:
            stores = any(
                isinstance(t, (ast.Attribute, ast.Subscript))
                for t in node.targets
            )
            if stores and _mentions(node.value, name):
                return True
        elif isinstance(node, ast.With):
            for item in node.items:
                if _mentions(item.context_expr, name):
                    return True
        elif isinstance(node, ast.Call) and node.args:
            # Passed whole to another callable (registry, atexit, pool):
            # custody is the callee's problem, not silently dropped.
            callee = dotted_name(node.func)
            if callee is not None and any(
                isinstance(arg, ast.Name) and arg.id == name
                for arg in node.args
            ):
                return True
    return False


def _mentions(node, name):
    return any(
        isinstance(sub, ast.Name) and sub.id == name
        for sub in ast.walk(node)
    )


@register
class ResourceCloseRule(Rule):
    id = "resource-close"
    category = "resources"
    description = (
        "a file/mmap/socket/pool bound to a local variable with no "
        "visible cleanup path: no `with`, no release inside a `finally`, "
        "and custody never transferred — the first exception after "
        "creation leaks the descriptor"
    )
    hint = (
        "use `with ...` when the lifetime is the block, or release it in "
        "a try/finally; store it on self (and close in close()) for "
        "object-owned resources"
    )

    def check(self, ctx):
        for function in ctx.walk():
            if not isinstance(function, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                continue
            for statement in ast.walk(function):
                if not isinstance(statement, ast.Assign):
                    continue
                # Only simple-name bindings: attribute targets are
                # object-owned (released by the owner's close()), tuple
                # targets are out of structural reach.
                if (len(statement.targets) != 1
                        or not isinstance(statement.targets[0], ast.Name)):
                    continue
                if ctx.enclosing_functions(statement)[:1] != [function]:
                    continue  # belongs to a nested def; analysed there
                call = _resource_call_in(statement.value)
                if call is None:
                    continue
                name = statement.targets[0].id
                if _released_in_finally(function, name):
                    continue
                if _custody_transferred(function, name, statement):
                    continue
                yield self.finding(
                    ctx, call,
                    "%s result bound to %r with no with/finally cleanup "
                    "and no custody transfer"
                    % (dotted_name(call.func), name),
                )
