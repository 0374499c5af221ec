"""Structural diff of XML trees.

Document equality is this library's central test invariant (conceptual ≡
optimized evaluation); when it fails, a boolean is useless.  ``tree_diff``
walks two trees in lockstep and reports the first ``limit`` mismatches with
their paths — tag differences, text differences, and child-count/label
differences — in a stable, human-readable form.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.xmlmodel.node import XMLElement, XMLNode, XMLText, child_nodes


@dataclass(frozen=True)
class Difference:
    """One mismatch between two trees."""

    path: str
    kind: str          # 'tag' | 'text' | 'children' | 'node-kind'
    left: str
    right: str

    def __str__(self) -> str:
        return f"{self.path}: {self.kind}: {self.left!r} != {self.right!r}"


def tree_diff(left: XMLNode, right: XMLNode,
              limit: int = 20) -> list[Difference]:
    """All differences between two trees, up to ``limit``. Empty = equal."""
    differences: list[Difference] = []
    _walk(left, right, _path_of(left), differences, limit)
    return differences


def assert_trees_equal(left: XMLNode, right: XMLNode,
                       label: str = "trees") -> None:
    """Raise AssertionError with a readable report when trees differ."""
    differences = tree_diff(left, right)
    if differences:
        report = "\n  ".join(str(d) for d in differences)
        raise AssertionError(f"{label} differ:\n  {report}")


def _path_of(node: XMLNode) -> str:
    if isinstance(node, XMLElement):
        return node.tag
    return "#text"


def _walk(left: XMLNode, right: XMLNode, path: str,
          differences: list[Difference], limit: int) -> None:
    if len(differences) >= limit:
        return
    left_is_text = isinstance(left, XMLText)
    right_is_text = isinstance(right, XMLText)
    if left_is_text != right_is_text:
        differences.append(Difference(
            path, "node-kind",
            "text" if left_is_text else f"<{left.tag}>",
            "text" if right_is_text else f"<{right.tag}>"))
        return
    if left_is_text:
        if left.value != right.value:
            differences.append(Difference(path, "text", left.value,
                                          right.value))
        return
    assert isinstance(left, XMLElement) and isinstance(right, XMLElement)
    if left.tag != right.tag:
        differences.append(Difference(path, "tag", left.tag, right.tag))
        return
    left_children, right_children = child_nodes(left), child_nodes(right)
    left_labels = [c.tag if isinstance(c, XMLElement) else "#text"
                   for c in left_children]
    right_labels = [c.tag if isinstance(c, XMLElement) else "#text"
                    for c in right_children]
    if left_labels != right_labels:
        differences.append(Difference(
            path, "children", str(left_labels), str(right_labels)))
        # still descend over the common prefix for more detail
    position: dict[str, int] = {}
    for left_child, right_child in zip(left_children, right_children):
        if len(differences) >= limit:
            return
        label = (left_child.tag if isinstance(left_child, XMLElement)
                 else "#text")
        position[label] = position.get(label, 0) + 1
        suffix = f"[{position[label]}]" if position[label] > 1 else ""
        _walk(left_child, right_child, f"{path}/{label}{suffix}",
              differences, limit)
