"""The public names of the package and of its transform module, and that
every other module-level name of the package is read somewhere in it."""

import ast
from pathlib import Path

import mcwave
from mcwave import transforms

PUBLIC = [
    "__version__",
    "ChannelConfig",
    "ChannelRealization",
    "Path",
    "PathSet",
    "channel_preset",
    "discretize",
    "draw_jakes_dopplers",
    "Constellation",
    "demap_hard",
    "map_bits",
    "mmse_equalize",
    "qam_constellation",
    "BerPoint",
    "af_delay_cut",
    "af_doppler_cut",
    "af_cut_metrics",
    "papr",
    "pilot_overhead",
    "run_ber",
    "FrameGeometry",
    "WaveformBundle",
    "build_waveform",
    "effective_channel",
]


TRANSFORMS_PUBLIC = [
    "dft_matrix",
    "daft_chirps",
    "dfrft_chirp",
    "dfnt_diagonals",
    "dfnt_matrix",
    "wht_matrix",
    "random_interleaver",
]


def test_package_exports_are_pinned():
    assert mcwave.__all__ == PUBLIC


def test_transform_exports_are_pinned():
    assert transforms.__all__ == TRANSFORMS_PUBLIC


def test_every_exported_name_resolves():
    for module in (mcwave, transforms):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


# Read from outside the package only: the benchmark harness times set-up
# through this name.
READ_OUTSIDE = {"bench._channel_config"}


def _defined(tree):
    """(name, node) of every module-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name) and not n.id.startswith("__"):
                        yield n.id, node


def _reads(tree, skip=None):
    """(module, name) read in ``tree`` outside ``skip``; module None is the tree's own.

    A name is read by a load, by ``from .module import name`` or as an
    attribute of a sibling module imported with ``from . import module``.
    """
    siblings, out = {}, set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    siblings[alias.asname or alias.name] = alias.name
                else:
                    out.add((node.module, alias.name))
    stack = [n for n in tree.body if n is not skip]
    while stack:
        n = stack.pop()
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add((None, n.id))
        elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
              and n.value.id in siblings):
            out.add((siblings[n.value.id], n.attr))
        stack.extend(c for c in ast.iter_child_nodes(n) if c is not skip)
    return out


def test_every_module_level_name_has_a_reader():
    # test-only code lives outside the package: a function, class or
    # constant that nothing in it reads is exported or it goes
    src = Path(mcwave.__file__).parent
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))}
    exported = {name for module in (mcwave, transforms) for name in module.__all__}
    unread = []
    for module, tree in trees.items():
        for name, node in _defined(tree):
            read = (None, name) in _reads(tree, node) or any(
                (module, name) in _reads(other) for m, other in trees.items() if m != module)
            if not (read or name in exported):
                unread.append(f"{module}.{name}")
    assert sorted(unread) == sorted(READ_OUTSIDE)
