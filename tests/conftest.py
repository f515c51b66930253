"""Helpers shared by the test modules: the threads that ``core._worker`` starts."""

import threading


def is_part(thread: threading.Thread) -> bool:
    """Whether ``thread`` is a ``core._worker`` thread."""
    return thread.name.startswith("rankprompt-part")


def part_threads() -> list:
    """The ``core._worker`` threads alive now."""
    return [thread for thread in threading.enumerate() if is_part(thread)]
