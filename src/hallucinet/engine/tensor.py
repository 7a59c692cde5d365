"""Dense tensors with reverse-mode automatic differentiation.

Standard precision is float32; float64 exists for finite-difference
gradient oracles. Every op verifies its output is finite and raises
NonFiniteError otherwise.

`requires_grad` alone decides what is differentiated: an op whose inputs
all have it off records no graph edge, so a frozen prefix of a network
(or a whole forward pass under `frozen`) costs no backward work and
holds no activations for it.
"""
from __future__ import annotations

import functools
from contextlib import contextmanager

import numpy as np

from ..parallel import run_in_order

FLOAT_DTYPES = (np.float32, np.float64)


class NonFiniteError(ArithmeticError):
    """An engine operation produced NaN or infinity."""


def _as_float_array(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data, dtype=dtype)
    if arr.dtype not in FLOAT_DTYPES:
        arr = arr.astype(np.float32)
    return arr


class Tensor:
    """A node of the computation graph: value, op tag, parents, gradient.

    A tensor given a `recompute` function can be released: its array is
    freed, shape and dtype stay, and the next read of `.data` rebuilds
    the value and holds it again. The rebuild reads its inputs and
    weights as they are at that read, so it is the value bit for bit as
    long as no optimizer step has moved them in between.
    """

    __slots__ = ("_data", "_spec", "grad", "requires_grad", "op", "parents",
                 "_backward", "recompute")

    def __init__(self, data, requires_grad: bool = False, dtype=None, op: str = "leaf"):
        self._data = _as_float_array(data, dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.op = op
        self.parents: tuple = ()
        self._backward = None
        self.recompute = None

    @property
    def data(self) -> np.ndarray:
        if self._data is None:
            self._data = self.recompute()
        return self._data

    @data.setter
    def data(self, value: np.ndarray):
        self._data = value

    @property
    def shape(self):
        return self._spec[0] if self._data is None else self._data.shape

    @property
    def dtype(self):
        return self._spec[1] if self._data is None else self._data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op!r}, grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """Same value, cut off from the graph (stop-gradient)."""
        return Tensor(self.data, requires_grad=False, op="detach")

    # -- arithmetic sugar ------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, mul(other, -1.0))


class Parameter(Tensor):
    """A named leaf tensor of a model; `requires_grad=False` holds it fixed."""

    __slots__ = ("name",)

    def __init__(self, data, name: str, requires_grad: bool = True, dtype=None):
        super().__init__(data, requires_grad=requires_grad, dtype=dtype, op="parameter")
        self.name = name

    @property
    def trainable(self) -> bool:
        return self.requires_grad

    def __repr__(self):
        return (f"Parameter({self.name!r}, shape={self.data.shape}, "
                f"requires_grad={self.requires_grad})")


@contextmanager
def frozen(params):
    """Hold `params` fixed for the block: `requires_grad` off, restored on exit.

    Ops that read only frozen parameters and constants build no graph, so
    a forward pass with every parameter frozen builds none at all.
    """
    params = list(params)
    saved = [p.requires_grad for p in params]
    for p in params:
        p.requires_grad = False
    try:
        yield
    finally:
        for p, flag in zip(params, saved):
            p.requires_grad = flag


def release(t: Tensor):
    """Free the array of a tensor that can recompute it; otherwise do nothing.

    The caller vouches that no weight moves before the next read. A
    train step's forward releases batchnorm outputs, which rebuild from
    their conv output with the forward's own vectors; of the conv
    outputs, which read their weight, it releases only a branch's first,
    and the backward that reads it again runs before the optimizer. Once
    its conv's backward has run, a released conv output raises on read."""
    if t.recompute is not None and t._data is not None:
        t._spec = (t._data.shape, t._data.dtype)
        t._data = None


def _wrap(value, like: Tensor) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.dtype), op="const")


def check_finite(arr: np.ndarray, op: str):
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite values produced by {op}")


def make_node(data: np.ndarray, op: str, parents: tuple, backward) -> Tensor:
    """Assemble an op's output node; graph edges only where grads are needed."""
    check_finite(data, op)
    requires = any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=requires, op=op)
    if requires:
        out.parents = tuple(p for p in parents if p.requires_grad)
        out._backward = backward
    return out


def _accumulate(tensor: Tensor, grad: np.ndarray):
    grad = np.asarray(grad, dtype=tensor.dtype)
    if grad.shape != tensor.shape:
        raise ValueError(f"gradient of shape {grad.shape} for {tensor.op} of shape {tensor.shape}")
    # accumulation is out-of-place, so sharing the upstream buffer is safe
    tensor.grad = grad if tensor.grad is None else tensor.grad + grad


# -- elementwise ops -----------------------------------------------------

def add(a: Tensor, b) -> Tensor:
    b = _wrap(b, a)

    def backward(out):
        if a.requires_grad:
            _accumulate(a, out.grad)
        if b.requires_grad:
            _accumulate(b, out.grad)

    return make_node(a.data + b.data, "add", (a, b), backward)


def mul(a: Tensor, b) -> Tensor:
    b = _wrap(b, a)

    def backward(out):
        if a.requires_grad:
            _accumulate(a, out.grad * b.data)
        if b.requires_grad:
            _accumulate(b, out.grad * a.data)

    return make_node(a.data * b.data, "mul", (a, b), backward)


# Unused by the program (softmax_nll fuses it); perfbench/probes.py looks it up by name.
def log(a: Tensor) -> Tensor:
    def backward(out):
        if a.requires_grad:
            _accumulate(a, out.grad / a.data)

    return make_node(np.log(a.data), "log", (a,), backward)


# Unused by the program (softmax_nll fuses it); perfbench/probes.py looks it up by name.
def clamp_min(a: Tensor, floor: float) -> Tensor:
    """max(a, floor); gradient passes only where a > floor."""
    mask = a.data > floor

    def backward(out):
        if a.requires_grad:
            _accumulate(a, out.grad * mask)

    return make_node(np.maximum(a.data, floor), "clamp_min", (a,), backward)


def tsum(a: Tensor) -> Tensor:
    def backward(out):
        if a.requires_grad:
            _accumulate(a, np.full(a.data.shape, out.grad, dtype=a.dtype))

    return make_node(np.asarray(a.data.sum(), dtype=a.dtype), "sum", (a,), backward)


def tmean(a: Tensor) -> Tensor:
    n = a.data.size

    def backward(out):
        if a.requires_grad:
            _accumulate(a, np.full(a.data.shape, out.grad / n, dtype=a.dtype))

    return make_node(np.asarray(a.data.mean(), dtype=a.dtype), "mean", (a,), backward)


# -- backward pass -------------------------------------------------------

def topo_order(root: Tensor) -> list[Tensor]:
    """Reverse-topological node order, deterministic (parent creation order)."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in reversed(node.parents):
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def _released(node: Tensor):
    raise ValueError(f"backward reached a released {node.op} node: "
                     "its graph was already differentiated")


def _owners(groups) -> dict[int, int]:
    """Map id(node) -> group index over every graph node a group's tensors
    reach through their parents; raise if two groups reach one node."""
    owner: dict[int, int] = {}
    for g, seeds in enumerate(groups):
        stack = [t for t in seeds if t.requires_grad]
        while stack:
            node = stack.pop()
            held = owner.setdefault(id(node), g)
            if held != g:
                raise ValueError(f"backward groups {held} and {g} share a {node.op} node")
            stack.extend(p for p in node.parents if owner.get(id(p)) != g)
    return owner


def _run_hooks(nodes: list):
    """Run and release each node's hook in list order, dropping the list's
    hold on a node once it has been processed."""
    for i, node in enumerate(nodes):
        nodes[i] = None
        hook = node._backward
        if hook is None:
            continue
        hook(node)
        node._backward = _released
        node.parents = ()
        node.grad = None
        release(node)


def backward(root: Tensor, groups=(), run=run_in_order):
    """Populate .grad for every leaf reachable from a scalar root.

    Each node's backward hook runs exactly once, in reverse topological
    order, so repeated runs on the same values give bit-identical grads.
    The graph is released as the pass goes: once its hook has run, a
    non-leaf node drops the hook, its parent links and its gradient, a
    recomputable node drops its value again, and the pass stops holding
    the node. So an activation that no caller holds is freed as soon as
    every node that reads it has been processed. Leaves keep their
    grads, and a node the caller holds keeps (or can recompute) its
    value. A released node keeps a hook that raises, and a backward that
    would reach one raises ValueError before touching any gradient.

    `groups` splits the pass. Each group is a list of tensors, and its
    subgraph is every node they reach through their parents; groups that
    share a node raise ValueError before any gradient is touched. The
    nodes of no group, which join the groups, run first, in the order
    above. Then `run` (by default `run_in_order`) gets one task per
    group, which runs that group's nodes in the same relative order. No
    node outside a group reads from it, so every hook still runs after
    the hooks of all nodes that read its output; and where a node is read
    from inside and outside its group, its gradient sums the same terms,
    the outside ones first, which is the same sum bit for bit when there
    are two. Once the graph is partitioned, a `groups` list is emptied, so
    that the pass alone holds the groups' tensors and a group's outputs
    are freed when its task has run, not when the whole pass ends.
    """
    if root.data.size != 1:
        raise ValueError(f"backward root must be scalar, got shape {root.data.shape}")
    if not root.requires_grad:
        raise ValueError("backward root does not require grad")
    order = topo_order(root)
    for node in order:
        if node._backward is _released:
            _released(node)
    owner = _owners(groups)
    parts: list[list] = [[] for _ in range(len(groups) + 1)]  # the joint nodes last
    if isinstance(groups, list):
        groups.clear()
    for node in reversed(order):
        parts[owner.get(id(node), -1)].append(node)
    del order
    root.grad = np.ones_like(root.data)
    _run_hooks(parts.pop())
    run([functools.partial(_run_hooks, part) for part in parts])
