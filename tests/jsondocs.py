"""Hypothesis helper: corrupt a decoded JSON document in a way its reader must reject."""

import copy

from hypothesis import strategies as st

# No reader template accepts any of these in place of any value.
BAD_VALUES = (None, [None], {"x": None})


def json_paths(doc, at=()):
    """Every path (tuple of keys and list positions) into doc, the root included."""
    yield at
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from json_paths(value, at + (key,))


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def corrupted(data, doc, free=lambda path: False, mapping=lambda path: False):
    """Copy of doc with one drawn corruption: a value replaced by a bad value,
    an unknown key added to an object, or a key deleted from an object whose
    keys are fixed.  `free` marks free-form subtrees to leave alone, `mapping`
    the objects whose keys may vary (deleting from them is legal)."""
    doc = copy.deepcopy(doc)
    kind = data.draw(st.sampled_from(["replace", "extra", "delete"]))
    paths = [p for p in json_paths(doc) if not free(p)]
    if kind == "delete":
        paths = [p for p in paths if isinstance(_node(doc, p), dict) and _node(doc, p) and not mapping(p)]
    elif kind == "extra":
        paths = [p for p in paths if isinstance(_node(doc, p), dict)]
    path = data.draw(st.sampled_from(paths))
    node = _node(doc, path)
    if kind == "delete":
        del node[data.draw(st.sampled_from(sorted(node)))]
    elif kind == "extra":
        node["unknown_key"] = 0
    elif not path:
        return data.draw(st.sampled_from(BAD_VALUES))
    else:
        _node(doc, path[:-1])[path[-1]] = copy.deepcopy(data.draw(st.sampled_from(BAD_VALUES)))
    return doc
