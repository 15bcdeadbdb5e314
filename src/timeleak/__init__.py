"""timeleak: learn a program's timing model, detect the secret-dependent part,
and count secrets per observational class to quantify the leak in bits.

`import timeleak` loads no submodule; import each by name, such as
`from timeleak import dataset`."""

__version__ = "0.1.0"
