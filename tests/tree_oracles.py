"""Structural checks of expansion trees of both families, each child rule
restated from its definition, so they judge the enumerators rather than
repeat them.  Each check raises StructureViolationError on the first
broken node; a tree of any depth is walked with an explicit stack.

A reader of the written JSON form sits at the end: it rebuilds the tree
a payload describes and checks it, so the tests can ask that what the
package writes determines the tree it wrote."""

from kohtrees.errors import StructureViolationError
from kohtrees.goh import Configuration, GohTree
from kohtrees.trees import KohTree
from kohtrees.partitions import Partition


def koh_child_types(mu, a):
    """(edge j, child type (a', b')) for each distinct row j of mu,
    ascending, at a node labeled (mu, a, |mu|):
    a' = (a + 2) j - 2 sum(min(part, j)) and b' = mult(j)."""
    return [(j, ((a + 2) * j - 2 * sum(min(part, j) for part in mu.parts),
                 mu.parts.count(j)))
            for j in sorted(set(mu.parts))]


def column_sum(nu, j):
    """Q_j(nu): the sum of the first j conjugate parts of nu."""
    return sum(nu.conjugate().parts[:j])


def second_difference(nus, i, j):
    """P^i_j = Q_j(nu^{i+1}) - 2 Q_j(nu^i) + Q_j(nu^{i-1})."""
    return (column_sum(nus[i + 1], j) - 2 * column_sum(nus[i], j)
            + column_sum(nus[i - 1], j))


def goh_child_types(config, k):
    """(edge, KOH type) of each subtree of a tree for (config, k), in edge
    order: (P^i_j, mult_j(nu^i)) for each level 1 <= i < len(lam) and each
    distinct part j of nu^i, ascending, then (|lam|, k - m) under edge
    None when m, the number of parts of nu^1, is below k."""
    lam, nus = config.lam, config.nus
    types = [((i, j), (second_difference(nus, i, j), nus[i].parts.count(j)))
             for i in range(1, len(lam)) for j in sorted(set(nus[i].parts))]
    m = len(nus[1])
    if m < k:
        types.append((None, (lam.size, k - m)))
    return types


def check_children(tree, types):
    """Check that tree's edges are those of its child types, in order, and
    return each subtree with the KOH type it must have."""
    edges = [edge for edge, _ in tree.children]
    expected = [edge for edge, _ in types]
    if edges != expected:
        raise StructureViolationError(
            f"edges {edges} do not match the child slots {expected}")
    return [(child, ctype) for (_, child), (_, ctype) in zip(tree.children, types)]


def validate_koh_tree(tree, expected_type=None):
    """Check every node of a KOH tree; expected_type pins the root's
    (a, b) too."""
    todo = [(tree, expected_type)]
    while todo:
        node, want = todo.pop()
        if want is not None and (node.a, node.b) != want:
            raise StructureViolationError(
                f"node type ({node.a}, {node.b}) != expected {want}")
        if node.a < 0 or node.b < 1:
            raise StructureViolationError(
                f"node type ({node.a}, {node.b}) out of range")
        if node.mu.size != node.b:
            raise StructureViolationError(
                f"label partition {node.mu!r} does not sum to b = {node.b}")
        if node.is_leaf:
            if node.mu != Partition((1,)) or node.children:
                raise StructureViolationError(f"malformed leaf {node!r}")
            continue
        todo.extend(check_children(node, koh_child_types(node.mu, node.a)))


def validate_configuration(config):
    """Check that config is an admissible chain for its shape lam: levels
    nu^0 = (1^n), ..., nu^l with |nu^i| the size of the rows of lam from
    row i on, and every P^i_j nonnegative for 1 <= i < l, 1 <= j <= n."""
    lam, nus = config.lam, config.nus
    if not lam:
        raise StructureViolationError("the shape partition must be nonempty")
    ell, n = len(lam), lam.size
    if len(nus) != ell + 1:
        raise StructureViolationError(
            f"expected {ell + 1} chain levels, got {len(nus)}")
    if nus[0] != Partition((1,) * n):
        raise StructureViolationError(f"level 0 must be (1^{n}), got {nus[0]!r}")
    for i, nu in enumerate(nus):
        if nu.size != sum(lam.parts[i:]):
            raise StructureViolationError(
                f"level {i} must have size {sum(lam.parts[i:])}, got {nu!r}")
    for i in range(1, ell):
        for j in range(1, n + 1):
            if second_difference(nus, i, j) < 0:
                raise StructureViolationError(
                    f"negative second difference at (i={i}, j={j})")


def validate_goh_tree(tree):
    """Check the root configuration, k, and every KOH subtree."""
    validate_configuration(tree.config)
    if tree.k < 0:
        raise StructureViolationError(f"k must be nonnegative, got {tree.k}")
    m = len(tree.config.nus[1])
    if m > tree.k:
        raise StructureViolationError(
            f"nu^1 has {m} parts, more than k = {tree.k}; no such tree exists")
    for child, ctype in check_children(tree, goh_child_types(tree.config, tree.k)):
        validate_koh_tree(child, expected_type=ctype)


def payload_int(value, field):
    """A number field of a payload: an int and not a bool."""
    if type(value) is not int:
        raise StructureViolationError(
            f"malformed tree payload: {field} must be an integer, got {value!r}")
    return value


def _read(build):
    """Run build, reporting a missing key or a bad value as a malformed
    payload."""
    try:
        return build()
    except StructureViolationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise StructureViolationError(f"malformed tree payload: {exc}") from exc


def _koh_from_dict(data):
    # payloads are only as deep as json.loads can nest, so recursion is fine
    return _read(lambda: KohTree(
        Partition(data["mu"]), payload_int(data["a"], "a"), payload_int(data["b"], "b"),
        tuple((payload_int(entry["edge"], "edge"), _koh_from_dict(entry["tree"]))
              for entry in data["children"])))


def koh_tree_from_dict(data):
    """The KOH tree a written payload describes, checked."""
    tree = _koh_from_dict(data)
    validate_koh_tree(tree)
    return tree


def goh_tree_from_dict(data):
    """The GOH tree a written payload describes, checked."""
    tree = _read(lambda: GohTree(
        Configuration(Partition(data["lambda"]),
                      tuple(Partition(p) for p in data["config"])),
        payload_int(data["k"], "k"),
        tuple((None if entry["edge"] is None
               else tuple(payload_int(x, "edge") for x in entry["edge"]),
               _koh_from_dict(entry["koh"]))
              for entry in data["children"])))
    validate_goh_tree(tree)
    return tree
