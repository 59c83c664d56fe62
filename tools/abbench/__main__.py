import sys

from abbench.cli import main

sys.exit(main())
