import run

run.add_import_paths()
