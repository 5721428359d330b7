"""The session's Python worker daemon (``repro.worker_daemon``): workers
keep their zip importers' directories across tasks, and an archive
shipped later still imports."""
import uuid
import zipfile

import pandas as pd


def test_worker_keeps_zip_directories(spark):
    """``importlib.invalidate_caches()``, which pyspark calls before every
    task, re-reads no zip archive directory in a worker."""
    def probe(batches):
        import importlib
        import sys
        import zipimport

        for _ in batches:
            pass
        zips = {p: f for p, f in sys.path_importer_cache.items()
                if isinstance(f, zipimport.zipimporter)}
        files = {p: f._files for p, f in zips.items()}
        importlib.invalidate_caches()
        reread = sum(f._files is not files[p] for p, f in zips.items())
        yield pd.DataFrame({"zips": [len(zips)], "reread": [reread]})

    (row,) = (spark.range(1, numPartitions=1)
              .mapInPandas(probe, "zips long, reread long").collect())
    assert row.zips > 0
    assert row.reread == 0


def test_added_archive_imports_in_workers(spark, tmp_path):
    """An archive added by ``addPyFile`` after the workers started gets a
    fresh importer, so its module imports in a reused worker."""
    def run(fn, schema):
        return (spark.range(1, numPartitions=1)
                .mapInPandas(fn, schema).collect())

    def warm(batches):
        for b in batches:
            yield b

    run(warm, "id long")
    name = f"added_{uuid.uuid4().hex}"
    archive = tmp_path / f"{name}.zip"
    with zipfile.ZipFile(archive, "w") as z:
        z.writestr(f"{name}.py", "VALUE = 41 + 1\n")
    spark.sparkContext.addPyFile(str(archive))

    def probe(batches):
        import importlib

        for _ in batches:
            pass
        mod = importlib.import_module(name)
        yield pd.DataFrame({"value": [mod.VALUE],
                            "archive": [mod.__loader__.archive]})

    (row,) = run(probe, "value long, archive string")
    assert row.value == 42
    assert row.archive.endswith(archive.name)
