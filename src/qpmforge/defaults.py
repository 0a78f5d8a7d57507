"""Empty module: the device defaults live in ``config._SCHEMA`` and the
spectrometer defaults in the fields of ``measurement.SpectrometerSpec``.

It stays importable only because ``perfbench/spans.py`` imports every
module it traces by name; delete it together with that entry.
"""
