"""Text, dict (JSON) and DOT forms of expansion trees of either family,
and the trees command that prints them.

A tree is rendered through the node view both KohTree and GohTree give:
root_fields() for the root label, children as (edge, subtree) pairs,
is_leaf, degree, and the class names family and child_key.  An edge is
a row length, an (i, j) slot, or None for the unlabeled GOH subtree.
print_listing prints a family's trees, or its marked trees at one r
(marked_listing), in any of the three forms.
"""

from __future__ import annotations

import itertools
import json
import sys

from .coefficients import METHOD_MARKED, two_row
from .errors import BudgetExceededError
from .koh import leaves
from .trees import leaf_sigma


def _compact(value) -> str:
    return json.dumps(value, separators=(",", ":"))


def _root_label(tree, sep: str) -> str:
    return "(" + sep.join(_compact(v) for v in tree.root_fields().values()) + ")"


def tree_to_text(tree, marks: tuple[int, ...] | None = None) -> str:
    """One-line listing: root, leaves, sigma, term, and marks if given."""
    lv = leaves(tree)
    s = leaf_sigma(tree.degree, lv)
    shift = s // 2
    factors = [f"[{a + 1}]" for a in lv]
    if shift == 1:
        factors.insert(0, "q")
    elif shift:
        factors.insert(0, f"q^{shift}")
    line = (f"root={_root_label(tree, ',')} leaves=({','.join(map(str, lv))}) "
            f"sigma={s} term={'*'.join(factors)}")
    if marks is not None:
        line += f" marks=({','.join(map(str, marks))})"
    return line


def tree_to_dict(tree, marks: tuple[int, ...] | None = None,
                 r: int | None = None) -> dict:
    """JSON-ready dict; marks/r attach a marking to the whole tree."""
    d = tree.root_fields()
    d["children"] = [{"edge": list(edge) if isinstance(edge, tuple) else edge,
                      tree.child_key: tree_to_dict(child)}
                     for edge, child in tree.children]
    if marks is not None:
        d["marks"] = list(marks)
        d["r"] = r
    return d


def tree_to_dot(tree, marks: tuple[int, ...] | None = None,
                r: int | None = None, graph_name: str | None = None) -> str:
    """DOT rendering; leaves abbreviate to their a value, marks get circles,
    the unlabeled edge stays bare.  graph_name defaults to the family."""
    lines = [f"digraph {graph_name or tree.family} {{", "  node [shape=plaintext];"]
    if r is not None:
        lines.append(f'  label="r = {r}";')
        lines.append("  labelloc=top;")
    ids = itertools.count()
    remaining = iter(marks) if marks is not None else None
    # nodes in preorder, each child's edge line held on the stack until
    # its whole subtree is written: an explicit stack, so the depth of a
    # thin tree is not bounded by the interpreter's recursion limit
    stack: list = [(tree, None, None)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            lines.append(item)
            continue
        node, parent, edge = item
        nid = f"n{next(ids)}"
        if edge is not None:
            label = ",".join(map(str, edge)) if isinstance(edge, tuple) else edge
            stack.append(f'  {parent} -> {nid} [label="{label}"];')
        elif parent is not None:
            stack.append(f"  {parent} -> {nid};")
        if node.is_leaf:
            lines.append(f'  {nid} [label="{node.a}"];')
            if remaining is not None:
                mid = f"n{next(ids)}"
                lines.append(f'  {mid} [label="{next(remaining)}", shape=circle];')
                lines.append(f"  {nid} -> {mid} [style=dashed, arrowhead=none];")
        else:
            lines.append(f'  {nid} [label="{_root_label(node, ", ")}"];')
            stack.extend((child, nid, e) for e, child in reversed(node.children))
    lines.append("}")
    return "\n".join(lines) + "\n"


def marked_listing(family: TreeFamily, r: int,
                   max_trees: int) -> list[tuple[object, tuple[int, ...]]]:
    """Every (tree, marking) pair selecting coefficient r, in tree order.

    The pairs are counted before any marking is listed; more than
    max_trees of them raise BudgetExceededError.
    """
    report = two_row(family, r, METHOD_MARKED, max_trees)
    if report.value > max_trees:
        raise BudgetExceededError(
            f"{report.value} marked trees exceed the budget {max_trees}")
    from .marking import enumerate_markings, marking_target
    pairs = []
    for tree, count in zip(family.trees(max_trees), report.witness_counts):
        if count:
            lv = leaves(tree)
            pairs.extend((tree, marks) for marks in enumerate_markings(
                lv, marking_target(sum(lv), family.total, r)))
    return pairs


def print_listing(family: TreeFamily, r: int | None, max_trees: int,
                  output_format: str) -> None:
    """Print the trees of family, or with r its marked trees, as text,
    json or dot.  A tree too deep to write as JSON raises
    BudgetExceededError."""
    entries = ([(tree, None) for tree in family.trees(max_trees)] if r is None
               else marked_listing(family, r, max_trees))
    if output_format == "json":
        try:
            text = json.dumps([tree_to_dict(tree, marks, r) for tree, marks in entries])
        except RecursionError:
            raise BudgetExceededError(
                "a tree is too deep to write as JSON; "
                "--format text or dot prints it") from None
        print(text)
    elif output_format == "dot":
        sys.stdout.write("".join(tree_to_dot(tree, marks, r, graph_name=f"tree_{i}")
                                 for i, (tree, marks) in enumerate(entries)))
    else:
        for i, (tree, marks) in enumerate(entries):
            print(f"tree {i}: {tree_to_text(tree, marks)}")
        label = "marked trees" if r is not None else "trees"
        print(f"total {label}: {len(entries)}")
