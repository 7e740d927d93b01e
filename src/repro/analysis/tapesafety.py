"""Tape-safety rules: stale-draw poisoners, replay allocations, stacked
weight buffer mutation.

The training tape replays recorded ``forward(out=None)`` closures
bit-identically — but only if (a) modules that opt in with ``tape_safe =
True`` route their stochastic draws through the tape's persistent-buffer
protocol (``nn.functional.sampled_normal``, ``nn.Dropout``'s mask buffer)
so every replayed epoch re-draws, and (b) the closures reuse their ``out``
buffers instead of allocating fresh arrays per replay.  Violations of (a)
are the nastiest kind: a raw rng draw wrapped into a ``Tensor`` records
fine and replays fine — with the *same* sample every epoch, silently
diverging from eager training.  Violations of (b) silently turn the fast
path into an allocation loop.  Both are statically visible, so these rules
move the discovery to lint time.

(Tape v1 treated ``softmax``/``dropout`` calls themselves as poisoners;
since tape v2 both record through buffered primitives, and the rule now
watches for the protocol being *bypassed* instead.)
"""

from __future__ import annotations

import ast

from .rules import Rule, register
from .walker import dotted_name

__all__ = ["TapePoisonRule", "TapeOutAllocRule", "StackedBufferMutationRule"]

#: Generator sampling methods.  A draw from any of these wrapped straight
#: into a ``Tensor`` bakes one record-time sample into the recorded graph;
#: matched as the trailing segment of a *dotted* call (``rng.random``,
#: ``self._rng.standard_normal``) so plain functions named ``choice`` or
#: ``random`` don't hit.
_SAMPLERS = frozenset((
    "random", "standard_normal", "normal", "uniform", "integers",
    "choice", "permutation", "binomial", "poisson", "exponential",
))

#: Constructors that lift an array into the autograd graph.
_TENSOR_WRAPPERS = frozenset(("Tensor", "as_tensor"))


def _class_declares_tape_safe(classdef):
    for statement in classdef.body:
        if isinstance(statement, ast.Assign):
            targets = [t.id for t in statement.targets
                       if isinstance(t, ast.Name)]
            if "tape_safe" in targets:
                return (isinstance(statement.value, ast.Constant)
                        and statement.value.value is True)
    return False


def _sampler_call(node):
    """The dotted name of an rng sampler call inside ``node``, or None."""
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        name = dotted_name(sub.func)
        if name is None or "." not in name:
            continue
        if name.rsplit(".", 1)[-1] in _SAMPLERS:
            return name
    return None


@register
class TapePoisonRule(Rule):
    id = "tape-poison"
    category = "tape-safety"
    description = (
        "a module declaring tape_safe = True wraps a raw rng draw in a "
        "Tensor, bypassing the tape's buffer protocol: the draw happens "
        "once at record time, so every replayed epoch reuses the same "
        "stale sample and silently diverges from eager training"
    )
    hint = (
        "route stochastic draws through the tape buffer protocol "
        "(nn.functional.sampled_normal, nn.Dropout's mask buffer), which "
        "re-draws into a persistent buffer on every replay"
    )

    def check(self, ctx):
        for node in ctx.walk():
            if not isinstance(node, ast.ClassDef):
                continue
            if not _class_declares_tape_safe(node):
                continue
            for method in node.body:
                if not isinstance(method, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)):
                    continue
                for call in ast.walk(method):
                    if not isinstance(call, ast.Call):
                        continue
                    name = dotted_name(call.func)
                    if name is None:
                        continue
                    if name.rsplit(".", 1)[-1] not in _TENSOR_WRAPPERS:
                        continue
                    arguments = list(call.args)
                    arguments += [kw.value for kw in call.keywords]
                    for argument in arguments:
                        sampler = _sampler_call(argument)
                        if sampler is None:
                            continue
                        yield self.finding(
                            ctx, call,
                            "%s(...) wraps a %s(...) draw inside tape_safe "
                            "class %s.%s" % (name, sampler, node.name,
                                             method.name),
                        )
                        break


#: Array constructors that allocate a fresh result every call.
_ALLOCATORS = frozenset((
    "zeros", "empty", "ones", "full", "zeros_like", "empty_like",
    "ones_like", "full_like", "copy", "array",
))


def _numpy_allocator(ctx, call):
    name = dotted_name(call.func)
    if name is None or "." not in name:
        return None
    prefix, attr = name.rsplit(".", 1)
    if attr in _ALLOCATORS and prefix in ctx.aliases_of("numpy"):
        return name
    return None


def _guarded_by_none_check(ctx, node, boundary):
    """Whether an ``if`` with an ``is None``-style test encloses ``node``.

    Covers the two sanctioned allocation idioms inside replayable
    closures: the out-guard (``if out is None: out = np.zeros(...)``) and
    the closure-persistent scratch cache (``if tmp is None or tmp.shape !=
    ...: tmp = scratch[0] = np.empty(...)``).  Both allocate exactly once
    per shape, never per replay.  The scan stops at ``boundary`` (the
    closure itself) — a guard outside the closure proves nothing about
    replay calls.
    """
    for ancestor in ctx.ancestors(node):
        if ancestor is boundary:
            return False
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            return False
        if isinstance(ancestor, (ast.If, ast.IfExp)):
            for sub in ast.walk(ancestor.test):
                if isinstance(sub, ast.Compare) and any(
                    isinstance(op, (ast.Is, ast.IsNot)) for op in sub.ops
                ):
                    return True
    return False


def _assigned_to_cache_slot(ctx, call):
    """Whether the allocation lands in a subscript slot (scratch cache)."""
    parent = ctx.parent(call)
    if isinstance(parent, ast.Assign) and parent.value is call:
        return any(isinstance(t, ast.Subscript) for t in parent.targets)
    return False


@register
class TapeOutAllocRule(Rule):
    id = "tape-out-alloc"
    category = "tape-safety"
    description = (
        "a forward(out=...) closure allocates a fresh array on the replay "
        "path: replays are supposed to write through the reused out "
        "buffer, so an unguarded constructor turns every replayed epoch "
        "into an allocation"
    )
    hint = (
        "allocate only under an `if out is None:` guard (or a `... is "
        "None`-checked scratch-cache slot) and write through out= "
        "otherwise"
    )

    def check(self, ctx):
        for node in ctx.walk():
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name != "forward":
                continue
            arg_names = [a.arg for a in (node.args.args
                                         + node.args.kwonlyargs)]
            if "out" not in arg_names:
                continue
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                name = _numpy_allocator(ctx, call)
                if name is None:
                    continue
                if _guarded_by_none_check(ctx, call, node):
                    continue
                if _assigned_to_cache_slot(ctx, call):
                    continue
                yield self.finding(
                    ctx, call,
                    "%s(...) allocates per replay in a forward(out=) "
                    "closure" % name,
                )


def _stacked_buffer_names(classdef):
    """The attribute names a ``_STACKED_BUFFERS`` declaration protects."""
    for statement in classdef.body:
        if not isinstance(statement, ast.Assign):
            continue
        targets = [t.id for t in statement.targets
                   if isinstance(t, ast.Name)]
        if "_STACKED_BUFFERS" not in targets:
            continue
        value = statement.value
        if isinstance(value, (ast.Tuple, ast.List)) and all(
            isinstance(e, ast.Constant) and isinstance(e.value, str)
            for e in value.elts
        ):
            return [e.value for e in value.elts]
    return []


def _mutated_attr(target):
    """The attribute name a mutation target writes through, or None.

    Peels tuple/list unpacking and subscript chains so ``p.weights[i] =
    ...``, ``p.weights[i][...] = ...`` and ``a, p.biases = ...`` all
    resolve to their underlying attribute.
    """
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            attr = _mutated_attr(element)
            if attr is not None:
                return attr
        return None
    while isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Attribute):
        return target.attr
    return None


@register
class StackedBufferMutationRule(Rule):
    id = "stacked-weight-mutation"
    category = "tape-safety"
    description = (
        "a stacked weight buffer (declared via _STACKED_BUFFERS on a "
        "compiled inference program) is mutated outside the declaring "
        "class: the program's replay closures read those buffers, so an "
        "outside write desynchronises the compiled forward from the "
        "member modules it was recorded from"
    )
    hint = (
        "hot-swap weights by rebinding the member module's Parameter "
        ".data (the member token then invalidates the cached program and "
        "the cache rebuilds it), or mutate inside the program's own methods"
    )

    def check(self, ctx):
        owners = {}   # protected attr name -> [declaring ClassDef, ...]
        inside = {}   # ClassDef -> node ids inside it
        for node in ctx.walk():
            if not isinstance(node, ast.ClassDef):
                continue
            names = _stacked_buffer_names(node)
            if not names:
                continue
            inside[node] = {id(sub) for sub in ast.walk(node)}
            for name in names:
                owners.setdefault(name, []).append(node)
        if not owners:
            return
        for node in ctx.walk():
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                attr = _mutated_attr(target)
                if attr not in owners:
                    continue
                if any(id(node) in inside[cls] for cls in owners[attr]):
                    continue
                yield self.finding(
                    ctx, node,
                    "write to stacked buffer attribute .%s outside its "
                    "declaring program class %s" % (
                        attr,
                        "/".join(cls.name for cls in owners[attr]),
                    ),
                )
