"""Spark's Python worker daemon, with zip archive directories kept.

``jobs._common.get_spark`` selects this module as
``spark.python.daemon.module``, so every Python worker of the session
is forked from it. Before each task, pyspark's
``worker_util.setup_spark_files`` calls ``importlib.invalidate_caches()``.
On CPython 3.11 that makes every ``zipimport.zipimporter`` in
``sys.path_importer_cache`` re-read its archive's whole directory. A
worker holds about 16 of them (``pyspark.zip`` once per package
directory, the Spark core jar and the py4j zip), so each task would
pay 0.16–0.24 s before reaching its UDF.

Here ``sys.path_hooks`` makes zip importers whose ``invalidate_caches``
does nothing, and the plain zip importers created before that (by
the imports of this module and of pyspark's worker) are dropped from
``sys.path_importer_cache``, so later imports build the new kind
(from the directory already read). Then ``pyspark.daemon.manager()``
runs as usual.

This is correct only while no archive on a worker's ``sys.path``
changes during the worker's life. Spark's own archives are fixed for
the life of the application. A file shipped with ``addPyFile`` is a new
path entry, so it gets a fresh importer that reads its directory once.
"""
from __future__ import annotations

import sys
import zipimport

from pyspark import daemon


class _KeptZipImporter(zipimport.zipimporter):
    """A zip importer that keeps the archive directory it read first."""

    def invalidate_caches(self):
        pass


def _keep_zip_directories() -> None:
    sys.path_hooks[:] = [_KeptZipImporter if h is zipimport.zipimporter
                         else h for h in sys.path_hooks]
    for path, finder in list(sys.path_importer_cache.items()):
        if type(finder) is zipimport.zipimporter:
            del sys.path_importer_cache[path]


if __name__ == "__main__":
    _keep_zip_directories()
    daemon.manager()
