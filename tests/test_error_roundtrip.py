"""Registry audit: every CrimsonError kind round-trips a live server.

The wire codec re-raises errors client-side by class name, looked up in
``storage/wire.py``'s ``ERROR_KINDS``, which is built from the classes
of ``errors.py``.  A subclass declared in any other module is missing
from the registry and decodes as the base ``CrimsonError``: the closure
test imports every ``repro`` module to catch one.  The rest guard the
runtime behaviour, kind by kind, over a real socket.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

from repro import errors as errors_module
from repro.errors import CrimsonError
from repro.server import CrimsonServer, RemoteSession
from repro.storage import wire
from repro.storage.store import CrimsonStore
from repro.trees.build import sample_tree


def registered_error_classes() -> dict[str, type]:
    """Every CrimsonError subclass (plus the root) defined in errors.py."""
    return {
        name: obj
        for name, obj in vars(errors_module).items()
        if isinstance(obj, type) and issubclass(obj, CrimsonError)
    }


def test_wire_registry_carries_every_error_class():
    assert wire.ERROR_KINDS == registered_error_classes()


def test_no_error_class_lives_outside_the_registry():
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith(".__main__"):
            importlib.import_module(module.name)

    def closure(cls: type) -> set[type]:
        found = {cls}
        for sub in cls.__subclasses__():
            found |= closure(sub)
        return found

    declared = {
        cls
        for cls in closure(CrimsonError)
        if cls.__module__.split(".")[0] == "repro"
    }
    assert declared == set(wire.ERROR_KINDS.values())


def test_every_kind_is_instantiable_from_a_message_alone():
    # decode_error builds each kind as cls(message): a subclass that
    # grew a second required argument would break decoding.
    for name, cls in sorted(wire.ERROR_KINDS.items()):
        error = cls(f"synthetic {name}")
        assert isinstance(error, CrimsonError)
        assert f"synthetic {name}" in str(error)


def test_each_registered_kind_reraises_client_side(tmp_path):
    path = str(tmp_path / "kinds.db")
    with CrimsonStore.open(path, readers=2) as store:
        store.trees.store_tree(sample_tree(), f=2)
        with CrimsonServer(store, port=0) as server:
            host, port = server.address
            with RemoteSession(host, port) as session:
                for name, cls in sorted(wire.ERROR_KINDS.items()):
                    probe = cls(f"synthetic {name}")

                    def explode(_tree_name, _probe=probe):
                        raise _probe

                    # The server's describe verb calls store.describe:
                    # shadow it on the instance so this exact error
                    # object travels the wire.
                    store.describe = explode
                    try:
                        with pytest.raises(CrimsonError) as caught:
                            session.describe("fig1-sample")
                    finally:
                        del store.describe
                    assert type(caught.value) is cls
                    assert f"synthetic {name}" in str(caught.value)
                # The shim is gone: the verb answers normally again.
                assert session.describe("fig1-sample").name == "fig1-sample"
